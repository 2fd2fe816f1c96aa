package kitchen

import (
	"fmt"
	"testing"

	"embench/internal/core"
	"embench/internal/modules/memory"
	"embench/internal/rng"
	"embench/internal/world"
)

func newGame(agents int, d world.Difficulty) *Game {
	return New(Config{Agents: agents, Difficulty: d}, rng.New(5))
}

// boardKnowledge renders the true order board and true progress into
// records — a perfectly informed belief.
func boardKnowledge(g *Game) []memory.Record {
	var recs []memory.Record
	for _, o := range g.orders {
		recs = append(recs, memory.Record{
			Step: g.Step(), Kind: memory.Observation, Key: fmt.Sprintf("order:%d", o.ID),
			Payload: OrderFact{ID: o.ID, Recipe: o.Recipe.Name, Stages: len(o.Recipe.Stages), Deadline: o.Deadline},
			Tokens:  orderFactTokens,
		})
		for s := 0; s < o.Stage; s++ {
			recs = append(recs, memory.Record{
				Step: g.Step(), Kind: memory.Observation, Key: fmt.Sprintf("prog:%d:%d", o.ID, s),
				Payload: ProgressFact{Order: o.ID, Stage: s}, Tokens: progFactTokens,
			})
		}
	}
	return recs
}

func TestConstruction(t *testing.T) {
	g := newGame(2, world.Medium)
	if g.TotalOrders() != 15 || g.MaxSteps() != 80 {
		t.Fatalf("orders=%d horizon=%d", g.TotalOrders(), g.MaxSteps())
	}
	if g.Required() != 11 { // ceil(0.7*15)
		t.Fatalf("required = %d, want 11", g.Required())
	}
	if g.Done() || g.Success() {
		t.Fatal("fresh game should be running")
	}
}

func TestOrdersArriveOverTime(t *testing.T) {
	g := newGame(2, world.Medium)
	initial := len(g.orders)
	if initial >= g.TotalOrders() {
		t.Fatal("some orders should arrive later")
	}
	for i := 0; i < 60; i++ {
		g.Tick()
	}
	if len(g.orders) != g.TotalOrders() {
		t.Fatalf("after 60 steps, %d/%d orders arrived", len(g.orders), g.TotalOrders())
	}
}

func TestExecOpHappyPath(t *testing.T) {
	g := newGame(1, world.Easy)
	o := g.orders[0]
	res := g.Execute(0, Op{Order: o.ID, Stage: 0, Station: o.Recipe.Stages[0]})
	if !res.Achieved || o.Stage != 1 {
		t.Fatalf("first stage failed: %+v", res)
	}
}

func TestExecOpWrongStage(t *testing.T) {
	g := newGame(1, world.Easy)
	o := g.orders[0]
	if g.Execute(0, Op{Order: o.ID, Stage: 2, Station: o.Recipe.Stages[2]}).Achieved {
		t.Fatal("skipping stages should fail")
	}
	// Redo of a completed stage also fails.
	g.Execute(0, Op{Order: o.ID, Stage: 0, Station: o.Recipe.Stages[0]})
	if g.Execute(0, Op{Order: o.ID, Stage: 0, Station: o.Recipe.Stages[0]}).Achieved {
		t.Fatal("redoing a done stage should fail")
	}
}

func TestStationContention(t *testing.T) {
	g := New(Config{Agents: 3, Difficulty: world.Hard, Orders: 6}, rng.New(5))
	// Serve window has one slot: two serves in one step must conflict.
	// Drive two orders to their final stage first.
	var ready []*Order
	for _, o := range g.orders {
		for !o.Done() && o.Stage < len(o.Recipe.Stages)-1 {
			res := g.Execute(0, Op{Order: o.ID, Stage: o.Stage, Station: o.Recipe.Stages[o.Stage]})
			if !res.Achieved {
				t.Fatalf("setup op failed: %s", res.Note)
			}
			g.Tick()
		}
		ready = append(ready, o)
		if len(ready) == 2 {
			break
		}
	}
	first := g.Execute(0, Op{Order: ready[0].ID, Stage: ready[0].Stage, Station: Window})
	second := g.Execute(1, Op{Order: ready[1].ID, Stage: ready[1].Stage, Station: Window})
	if !first.Achieved {
		t.Fatalf("first serve failed: %s", first.Note)
	}
	if second.Achieved {
		t.Fatal("second serve in the same step should hit a busy window")
	}
	if second.Note != "station busy" {
		t.Fatalf("note = %q", second.Note)
	}
}

func TestCentralOracleCompletesEasy(t *testing.T) {
	g := newGame(2, world.Easy)
	steps := 0
	for !g.Done() && steps < 60 {
		bel := g.BuildBelief(core.CentralAgent, boardKnowledge(g))
		prop := g.ProposeJoint(bel)
		joint := prop.Good.(*core.Joint)
		for a := 0; a < g.Agents(); a++ {
			g.Execute(a, joint.Assign[a])
		}
		g.Tick()
		steps++
	}
	if !g.Success() {
		t.Fatalf("central oracle failed: served %d/%d on time (need %d) in %d steps",
			g.ServedOnTime(), g.TotalOrders(), g.Required(), steps)
	}
}

func TestCentralOracleCompletesHardWithFourAgents(t *testing.T) {
	g := New(Config{Agents: 4, Difficulty: world.Hard}, rng.New(5))
	steps := 0
	for !g.Done() && steps < 200 {
		bel := g.BuildBelief(core.CentralAgent, boardKnowledge(g))
		joint := g.ProposeJoint(bel).Good.(*core.Joint)
		for a := 0; a < g.Agents(); a++ {
			g.Execute(a, joint.Assign[a])
		}
		g.Tick()
		steps++
	}
	if !g.Success() {
		t.Fatalf("hard central oracle: served %d/%d (need %d)", g.ServedOnTime(), g.TotalOrders(), g.Required())
	}
}

func TestJointAssignsDistinctOps(t *testing.T) {
	g := newGame(4, world.Medium)
	bel := g.BuildBelief(core.CentralAgent, boardKnowledge(g))
	joint := g.ProposeJoint(bel).Good.(*core.Joint)
	seen := map[string]bool{}
	for _, sg := range joint.Assign {
		if op, ok := sg.(Op); ok {
			if seen[op.ID()] {
				t.Fatal("joint assignment duplicated an op")
			}
			seen[op.ID()] = true
		}
	}
}

func TestJointRespectsStationSlots(t *testing.T) {
	g := New(Config{Agents: 8, Difficulty: world.Hard, Orders: 12}, rng.New(5))
	bel := g.BuildBelief(core.CentralAgent, boardKnowledge(g))
	joint := g.ProposeJoint(bel).Good.(*core.Joint)
	counts := map[Station]int{}
	for _, sg := range joint.Assign {
		if op, ok := sg.(Op); ok {
			counts[op.Station]++
		}
	}
	for st, n := range counts {
		if n > stationSlots[st] {
			t.Fatalf("station %s oversubscribed: %d > %d", st, n, stationSlots[st])
		}
	}
}

func TestDecentralizedProposeAvoidsClaims(t *testing.T) {
	g := newGame(2, world.Easy)
	recs := boardKnowledge(g)
	prop := g.Propose(0, g.BuildBelief(0, recs))
	op, ok := prop.Good.(Op)
	if !ok {
		t.Fatalf("expected an op, got %s", prop.Good.Describe())
	}
	// Agent 1 claims that very op; agent 0 must pick something else.
	recs = append(recs, memory.Record{
		Step: g.Step(), Kind: memory.Dialogue, Key: "claim:1",
		Payload: ClaimFact{Agent: 1, Order: op.Order, Stage: op.Stage}, Tokens: 8,
	})
	prop2 := g.Propose(0, g.BuildBelief(0, recs))
	if prop2.Good.ID() == prop.Good.ID() {
		t.Fatal("proposal ignored teammate's claim")
	}
}

func TestStaleBeliefRedoesWork(t *testing.T) {
	g := newGame(2, world.Easy)
	recs := boardKnowledge(g) // snapshot before progress
	o := g.orders[0]
	g.Execute(1, Op{Order: o.ID, Stage: 0, Station: o.Recipe.Stages[0]})
	// Old records say stage 0 is still open.
	bel := g.BuildBelief(0, recs)
	if bel.Staleness == 0 {
		t.Fatal("belief should be stale after unseen progress")
	}
	prop := g.Propose(0, bel)
	if op, ok := prop.Good.(Op); ok && op.Order == o.ID && op.Stage == 0 {
		// The oracle faithfully plans from the stale belief; execution fails.
		if g.Execute(0, op).Achieved {
			t.Fatal("stale-stage op should fail")
		}
	}
}

func TestCorruptionsDistinct(t *testing.T) {
	g := newGame(2, world.Medium)
	prop := g.Propose(0, g.BuildBelief(0, boardKnowledge(g)))
	if len(prop.Corruptions) == 0 {
		t.Fatal("no corruptions")
	}
	for _, c := range prop.Corruptions {
		if c.ID() == prop.Good.ID() {
			t.Fatal("corruption duplicates good op")
		}
	}
}

func TestEventsVisibleThroughNextStep(t *testing.T) {
	g := newGame(1, world.Easy)
	o := g.orders[0]
	g.Execute(0, Op{Order: o.ID, Stage: 0, Station: o.Recipe.Stages[0]})
	count := func() int {
		n := 0
		for _, r := range g.Observe(0).Records {
			if _, ok := r.Payload.(ProgressFact); ok {
				n++
			}
		}
		return n
	}
	if count() == 0 {
		t.Fatal("completion event missing from same-step observation")
	}
	g.Tick()
	// Still observable one step later (sensing precedes execution).
	if count() == 0 {
		t.Fatal("completion event should survive into the next step")
	}
	g.Tick()
	if count() != 0 {
		t.Fatal("completion event leaked past its window")
	}
}

func TestSuccessThreshold(t *testing.T) {
	g := New(Config{Agents: 2, Difficulty: world.Easy, Orders: 5}, rng.New(5))
	if g.Required() != 4 {
		t.Fatalf("required = %d, want ceil(0.7*5)=4", g.Required())
	}
}

func TestHorizonEndsGame(t *testing.T) {
	g := New(Config{Agents: 1, Difficulty: world.Easy, Horizon: 2}, rng.New(5))
	g.Tick()
	g.Tick()
	if !g.Done() {
		t.Fatal("horizon should end the game")
	}
}

// TestObserveAllocatesExactly pins the presized observation: one records
// slice of exactly the record count (open orders, then last step's and this
// step's completion events), plus one boxed payload per open order.
func TestObserveAllocatesExactly(t *testing.T) {
	g := newGame(2, world.Hard)
	o := g.orders[0]
	g.Execute(0, Op{Order: o.ID, Stage: 0, Station: o.Recipe.Stages[0]})
	g.Tick()
	g.Execute(0, Op{Order: o.ID, Stage: 1, Station: o.Recipe.Stages[1]})
	obs := g.Observe(0)
	if len(obs.Records) != cap(obs.Records) || len(obs.Records) != obs.Entities+2 {
		t.Fatalf("Observe returned len %d cap %d for %d orders, want len == cap == orders + 2 events",
			len(obs.Records), cap(obs.Records), obs.Entities)
	}
	if n := testing.AllocsPerRun(100, func() { g.Observe(0) }); n > float64(1+obs.Entities) {
		t.Fatalf("Observe allocs/run = %v, want at most %d (records + one payload per order)", n, 1+obs.Entities)
	}
}
