package gridhouse

import (
	"fmt"
	"testing"

	"embench/internal/core"
	"embench/internal/modules/memory"
	"embench/internal/rng"
	"embench/internal/world"
)

func newHouse(agents int, d world.Difficulty) *House {
	return New(Config{Agents: agents, Difficulty: d}, rng.New(7))
}

// fullKnowledge gathers every object's true location into records, as if
// the agent had perfect memory of a full sweep.
func fullKnowledge(h *House) []memory.Record {
	var recs []memory.Record
	for i := 0; i < h.Objects(); i++ {
		o := h.objects[i]
		recs = append(recs, memory.Record{
			Step: h.Step(), Kind: memory.Observation, Key: fmt.Sprintf("obj:%d", i),
			Payload: ObjFact{ID: i, Cell: o.cell, Delivered: o.delivered, CarriedBy: o.carriedBy},
			Tokens:  objFactTokens,
		})
	}
	for r := 0; r < 4; r++ {
		recs = append(recs, memory.Record{
			Step: h.Step(), Kind: memory.Observation, Key: fmt.Sprintf("room:%d", r),
			Payload: r, Tokens: roomFactTokens,
		})
	}
	return recs
}

func TestConstruction(t *testing.T) {
	h := newHouse(2, world.Medium)
	if h.Agents() != 2 || h.Objects() != 6 || h.MaxSteps() != 100 {
		t.Fatalf("config wrong: agents=%d objects=%d max=%d", h.Agents(), h.Objects(), h.MaxSteps())
	}
	if h.Done() || h.Success() || h.Progress() != 0 {
		t.Fatal("fresh episode should be in progress")
	}
	for i := 0; i < h.Objects(); i++ {
		if h.grid.Blocked(h.objects[i].cell) {
			t.Fatalf("object %d placed in a wall", i)
		}
	}
}

func TestDifficultyScaling(t *testing.T) {
	if newHouse(1, world.Easy).Objects() >= newHouse(1, world.Hard).Objects() {
		t.Fatal("hard tasks should have more targets")
	}
	if newHouse(1, world.Easy).MaxSteps() >= newHouse(1, world.Hard).MaxSteps() {
		t.Fatal("hard tasks should have longer horizons")
	}
}

func TestDeterministicPlacement(t *testing.T) {
	a := New(Config{Agents: 1, Difficulty: world.Medium}, rng.New(7))
	b := New(Config{Agents: 1, Difficulty: world.Medium}, rng.New(7))
	for i := range a.objects {
		if a.objects[i].cell != b.objects[i].cell {
			t.Fatal("same seed should give identical task instances")
		}
	}
	c := New(Config{Agents: 1, Difficulty: world.Medium}, rng.New(8))
	same := true
	for i := range a.objects {
		if a.objects[i].cell != c.objects[i].cell {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestObserveRoomScoped(t *testing.T) {
	h := newHouse(1, world.Hard)
	obs := h.Observe(0)
	room := roomOf(h.AgentCell(0))
	for _, r := range obs.Records {
		if f, ok := r.Payload.(ObjFact); ok {
			if roomOf(f.Cell) != room {
				t.Fatalf("saw object %d outside the agent's room", f.ID)
			}
		}
	}
	// Room-visit record is always present.
	if _, ok := obs.Records[0].Payload.(int); !ok {
		t.Fatal("first record should be the room visit")
	}
}

func TestStaticRecords(t *testing.T) {
	h := newHouse(1, world.Easy)
	recs := h.StaticRecords()
	if len(recs) != 4 {
		t.Fatalf("static records = %d, want 4 rooms", len(recs))
	}
	for _, r := range recs {
		if !r.Static {
			t.Fatal("map facts must be static")
		}
	}
}

func TestOracleSolvesEpisode(t *testing.T) {
	// Driving the domain with perfect knowledge and no corruption must
	// finish well within the horizon — this validates oracle + executor.
	h := newHouse(1, world.Medium)
	steps := 0
	for !h.Done() {
		bel := h.BuildBelief(0, fullKnowledge(h))
		prop := h.Propose(0, bel)
		if prop.Good == nil {
			t.Fatal("oracle returned nil subgoal")
		}
		res := h.Execute(0, prop.Good)
		if !res.Achieved {
			t.Fatalf("oracle subgoal %s failed: %s", prop.Good.Describe(), res.Note)
		}
		h.Tick()
		steps++
		if steps > 100 {
			t.Fatal("runaway episode")
		}
	}
	if !h.Success() {
		t.Fatal("oracle run should succeed")
	}
	// 6 objects, fetch+deliver each: ≈12 steps.
	if steps > 20 {
		t.Fatalf("oracle took %d steps, expected ≈12", steps)
	}
}

func TestMultiAgentOracleFaster(t *testing.T) {
	run := func(agents int) int {
		h := newHouse(agents, world.Hard)
		steps := 0
		for !h.Done() {
			for a := 0; a < agents; a++ {
				bel := h.BuildBelief(a, fullKnowledge(h))
				// Mark claims so agents don't duplicate work.
				recs := fullKnowledge(h)
				for other := 0; other < agents; other++ {
					if other != a && h.Carrying(other) >= 0 {
						recs = append(recs, memory.Record{
							Step: h.Step(), Kind: memory.Action,
							Key:     fmt.Sprintf("claim:%d", other),
							Payload: ClaimFact{Agent: other, Object: h.Carrying(other)},
							Tokens:  8,
						})
					}
				}
				bel = h.BuildBelief(a, recs)
				prop := h.Propose(a, bel)
				h.Execute(a, prop.Good)
			}
			h.Tick()
			steps++
			if steps > 200 {
				t.Fatal("runaway")
			}
		}
		return steps
	}
	s1, s4 := run(1), run(4)
	if s4 >= s1 {
		t.Fatalf("4 agents (%d steps) should beat 1 agent (%d steps)", s4, s1)
	}
}

func TestFetchStaleLocationFails(t *testing.T) {
	h := newHouse(1, world.Easy)
	o := h.objects[0]
	wrong := world.C(o.cell.X, o.cell.Y)
	// Find a free cell that's not the object's.
	for dx := 1; dx < 10; dx++ {
		c := world.C((o.cell.X+dx)%25, o.cell.Y)
		if !h.grid.Blocked(c) && c != o.cell {
			wrong = c
			break
		}
	}
	res := h.Execute(0, Fetch{Obj: 0, Cell: wrong})
	if res.Achieved {
		t.Fatal("fetch at stale location should fail")
	}
	if res.Effort.Primitives == 0 {
		t.Fatal("the wasted trip should still cost actuation effort")
	}
}

func TestDeliverWithoutCarryingFails(t *testing.T) {
	h := newHouse(1, world.Easy)
	if h.Execute(0, Deliver{}).Achieved {
		t.Fatal("empty-handed delivery should fail")
	}
}

func TestFetchThenDeliver(t *testing.T) {
	h := newHouse(1, world.Easy)
	o := h.objects[0]
	res := h.Execute(0, Fetch{Obj: 0, Cell: o.cell})
	if !res.Achieved || h.Carrying(0) != 0 {
		t.Fatalf("fetch failed: %+v carrying=%d", res, h.Carrying(0))
	}
	res = h.Execute(0, Deliver{})
	if !res.Achieved || h.Delivered() != 1 {
		t.Fatalf("deliver failed: %+v delivered=%d", res, h.Delivered())
	}
	if !o.delivered {
		t.Fatal("object not marked delivered")
	}
	// Delivered objects can't be fetched again.
	if h.Execute(0, Fetch{Obj: 0, Cell: o.cell}).Achieved {
		t.Fatal("re-fetch of delivered object should fail")
	}
}

func TestDoubleFetchConflict(t *testing.T) {
	h := newHouse(2, world.Easy)
	o := h.objects[0]
	if !h.Execute(0, Fetch{Obj: 0, Cell: o.cell}).Achieved {
		t.Fatal("first fetch should succeed")
	}
	if h.Execute(1, Fetch{Obj: 0, Cell: o.cell}).Achieved {
		t.Fatal("second agent fetching a carried object should fail")
	}
}

func TestExploreMovesAgent(t *testing.T) {
	h := newHouse(1, world.Easy)
	res := h.Execute(0, Explore{Room: 3})
	if !res.Achieved {
		t.Fatalf("explore failed: %s", res.Note)
	}
	if roomOf(h.AgentCell(0)) != 3 {
		t.Fatalf("agent in room %d, want 3", roomOf(h.AgentCell(0)))
	}
	if h.Execute(0, Explore{Room: 9}).Achieved {
		t.Fatal("bad room should fail")
	}
}

func TestBeliefStaleness(t *testing.T) {
	h := newHouse(2, world.Easy)
	// Agent 1's memory says object 0 is on the floor at its spawn cell.
	recs := []memory.Record{{
		Step: 0, Kind: memory.Observation, Key: "obj:0",
		Payload: ObjFact{ID: 0, Cell: h.objects[0].cell, CarriedBy: -1},
		Tokens:  objFactTokens,
	}}
	bel := h.BuildBelief(1, recs)
	if bel.Staleness != 0 {
		t.Fatalf("fresh belief staleness = %v, want 0", bel.Staleness)
	}
	// Agent 0 picks it up; the same old records are now stale.
	h.Execute(0, Fetch{Obj: 0, Cell: h.objects[0].cell})
	bel = h.BuildBelief(1, recs)
	if bel.Staleness != 1 {
		t.Fatalf("stale belief staleness = %v, want 1", bel.Staleness)
	}
}

func TestProposeCarryingPrefersDeliver(t *testing.T) {
	h := newHouse(1, world.Easy)
	h.Execute(0, Fetch{Obj: 0, Cell: h.objects[0].cell})
	prop := h.Propose(0, h.BuildBelief(0, fullKnowledge(h)))
	if _, ok := prop.Good.(Deliver); !ok {
		t.Fatalf("carrying agent should deliver, got %s", prop.Good.Describe())
	}
}

func TestProposeRespectsClaims(t *testing.T) {
	h := newHouse(2, world.Easy)
	recs := fullKnowledge(h)
	// Agent 1 claims the object nearest to agent 0.
	prop0 := h.Propose(0, h.BuildBelief(0, recs))
	nearest, ok := prop0.Good.(Fetch)
	if !ok {
		t.Fatalf("expected fetch, got %s", prop0.Good.Describe())
	}
	recs = append(recs, memory.Record{
		Step: 0, Kind: memory.Dialogue, Key: "claim:1",
		Payload: ClaimFact{Agent: 1, Object: nearest.Obj}, Tokens: 8,
	})
	prop := h.Propose(0, h.BuildBelief(0, recs))
	if f, ok := prop.Good.(Fetch); ok && f.Obj == nearest.Obj {
		t.Fatal("proposal ignored teammate's claim")
	}
}

func TestProposeWithoutKnowledgeExplores(t *testing.T) {
	h := newHouse(1, world.Medium)
	prop := h.Propose(0, h.BuildBelief(0, nil))
	if _, ok := prop.Good.(Explore); !ok {
		t.Fatalf("blank belief should explore, got %s", prop.Good.Describe())
	}
	if len(prop.Corruptions) == 0 {
		t.Fatal("proposal must offer corruption candidates")
	}
}

func TestCorruptionsDistinctFromGood(t *testing.T) {
	h := newHouse(2, world.Hard)
	prop := h.Propose(0, h.BuildBelief(0, fullKnowledge(h)))
	for _, c := range prop.Corruptions {
		if c.ID() == prop.Good.ID() {
			t.Fatalf("corruption %s duplicates the good decision", c.ID())
		}
	}
}

func TestProposeJoint(t *testing.T) {
	h := newHouse(3, world.Medium)
	prop := h.ProposeJoint(h.BuildBelief(core.CentralAgent, fullKnowledge(h)))
	joint, ok := prop.Good.(*core.Joint)
	if !ok {
		t.Fatalf("joint proposal type %T", prop.Good)
	}
	if len(joint.Assign) != 3 {
		t.Fatalf("assignments = %d, want 3", len(joint.Assign))
	}
	// No duplicated fetch targets in the good assignment.
	seen := map[int]bool{}
	for _, g := range joint.Assign {
		if f, ok := g.(Fetch); ok {
			if seen[f.Obj] {
				t.Fatal("joint proposal duplicated an object")
			}
			seen[f.Obj] = true
		}
	}
	if prop.Complexity <= core.DecentralizedComplexity(3) {
		t.Fatal("centralized complexity should exceed decentralized")
	}
	if len(prop.Corruptions) == 0 {
		t.Fatal("joint proposal needs corruptions")
	}
}

func TestCentralizedComplexityGrowsWithAgents(t *testing.T) {
	h2 := newHouse(2, world.Medium)
	h8 := newHouse(8, world.Medium)
	p2 := h2.ProposeJoint(h2.BuildBelief(core.CentralAgent, fullKnowledge(h2)))
	p8 := h8.ProposeJoint(h8.BuildBelief(core.CentralAgent, fullKnowledge(h8)))
	if p8.Complexity <= p2.Complexity {
		t.Fatal("joint complexity should grow with team size")
	}
}

func TestTickAdvancesStep(t *testing.T) {
	h := newHouse(1, world.Easy)
	h.Tick()
	h.Tick()
	if h.Step() != 2 {
		t.Fatalf("step = %d", h.Step())
	}
}

func TestHorizonEndsEpisode(t *testing.T) {
	h := New(Config{Agents: 1, Difficulty: world.Easy, Horizon: 3}, rng.New(1))
	for i := 0; i < 3; i++ {
		h.Tick()
	}
	if !h.Done() || h.Success() {
		t.Fatal("horizon exhaustion should end the episode unsuccessfully")
	}
}

// crowdedHouse puts four agents in the start room of a hard house, so agent
// 0 sees the room, its teammates and the objects placed there.
func crowdedHouse() *House { return newHouse(4, world.Hard) }

// TestObserveAllocatesExactly pins the presized observation: one records
// slice of exactly the record count, plus one boxed payload per entity.
// Keys are built in New, so no per-record string is formatted.
func TestObserveAllocatesExactly(t *testing.T) {
	h := crowdedHouse()
	obs := h.Observe(0)
	if len(obs.Records) < 4 || len(obs.Records) != cap(obs.Records) {
		t.Fatalf("Observe returned len %d cap %d, want len == cap and at least 4 records",
			len(obs.Records), cap(obs.Records))
	}
	if len(obs.Records) != 1+obs.Entities {
		t.Fatalf("%d records for %d entities, want the room plus one per entity", len(obs.Records), obs.Entities)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(0) }); n > float64(1+obs.Entities) {
		t.Fatalf("Observe allocs/run = %v, want at most %d (records + one payload per entity)", n, 1+obs.Entities)
	}
	want := []string{"room:0"}
	for _, r := range obs.Records[1:] {
		switch p := r.Payload.(type) {
		case ObjFact:
			want = append(want, fmt.Sprintf("obj:%d", p.ID))
		case AgentFact:
			want = append(want, fmt.Sprintf("agent:%d", p.ID))
		}
	}
	for i, r := range obs.Records {
		if r.Key != want[i] {
			t.Fatalf("record %d key %q, want %q", i, r.Key, want[i])
		}
	}
	if rec, _ := h.ClaimRecord(core.CentralAgent, Explore{}); rec.Key != "claim:-1" {
		t.Fatalf("central claim key %q", rec.Key)
	}
	if rec, _ := h.ClaimRecord(3, Explore{}); rec.Key != "claim:3" {
		t.Fatalf("agent claim key %q", rec.Key)
	}
}

func BenchmarkObserve(b *testing.B) {
	h := crowdedHouse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(i % 4)
	}
}
