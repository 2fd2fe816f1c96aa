package core

import (
	"fmt"
	"reflect"
	"testing"

	"embench/internal/llm"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/modules/sensing"
	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/simclock"
	"embench/internal/trace"
)

// stubGoal is a trivial subgoal.
type stubGoal struct{ name string }

func (s stubGoal) ID() string       { return s.name }
func (s stubGoal) Describe() string { return "do " + s.name }

// stubDomain is a minimal, scriptable Domain for unit-testing the agent
// pipeline: a counter task where the oracle always proposes "advance" and
// corrupted decisions are "wrong" (which fail on execution).
type stubDomain struct {
	step        int
	progress    int
	target      int
	horizon     int
	agents      int
	staleness   float64
	execFail    bool // force execution failures
	corrections int
	claims      int
}

func newStub() *stubDomain { return &stubDomain{target: 5, horizon: 20, agents: 1} }

func (d *stubDomain) Name() string      { return "stub" }
func (d *stubDomain) Agents() int       { return d.agents }
func (d *stubDomain) MaxSteps() int     { return d.horizon }
func (d *stubDomain) Step() int         { return d.step }
func (d *stubDomain) Done() bool        { return d.Success() || d.step >= d.horizon }
func (d *stubDomain) Success() bool     { return d.progress >= d.target }
func (d *stubDomain) Progress() float64 { return float64(d.progress) / float64(d.target) }
func (d *stubDomain) Tick()             { d.step++ }

func (d *stubDomain) StaticRecords() []memory.Record {
	return []memory.Record{{Key: "map", Payload: "layout", Tokens: 20, Static: true}}
}

func (d *stubDomain) Observe(agent int) Observation {
	rec := memory.Record{
		Step: d.step, Kind: memory.Observation, Key: "progress",
		Payload: d.progress, Tokens: 10,
	}
	return Observation{Records: []memory.Record{rec}, Entities: 1, Tokens: 10}
}

func (d *stubDomain) BuildBelief(agent int, recs []memory.Record) Belief {
	return Belief{Payload: len(recs), Staleness: d.staleness}
}

func (d *stubDomain) Propose(agent int, b Belief) Proposal {
	return Proposal{
		Good:        stubGoal{"advance"},
		Corruptions: []Subgoal{stubGoal{"wrong"}},
	}
}

func (d *stubDomain) Execute(agent int, g Subgoal) execution.Result {
	if d.execFail || g.ID() != "advance" {
		return execution.Result{Note: "failed", Effort: execution.Effort{Primitives: 1}}
	}
	d.progress++
	return execution.Result{Achieved: true, Effort: execution.Effort{Primitives: 1}}
}

func (d *stubDomain) ClaimRecord(agent int, g Subgoal) (memory.Record, bool) {
	d.claims++
	return memory.Record{Key: fmt.Sprintf("claim:%d", agent), Payload: g.ID(), Tokens: 4}, true
}

func (d *stubDomain) CorrectionRecords(agent int, g Subgoal, res execution.Result) []memory.Record {
	d.corrections++
	return []memory.Record{{Key: "corrected:" + g.ID(), Payload: true, Tokens: 4}}
}

var (
	_ Domain    = (*stubDomain)(nil)
	_ Claimer   = (*stubDomain)(nil)
	_ Corrector = (*stubDomain)(nil)
)

func perfectPlanner() llm.Profile {
	p := llm.GPT4
	p.Capability = 1
	p.JitterFrac = 0
	return p
}

func newTestAgent(t *testing.T, cfg AgentConfig) (*Agent, *simclock.Clock, *trace.Trace) {
	t.Helper()
	clock := simclock.New()
	tr := trace.New()
	return NewAgent(0, cfg, rng.New(7), clock, tr), clock, tr
}

func TestConfigDefaults(t *testing.T) {
	cfg := AgentConfig{Planner: llm.GPT4}.withDefaults()
	if cfg.SystemTokens != 220 || cfg.TaskTokens != 90 {
		t.Fatalf("prompt defaults wrong: %d/%d", cfg.SystemTokens, cfg.TaskTokens)
	}
	if cfg.PlanHorizon != 1 || cfg.PlanOutTokens != 140 {
		t.Fatalf("plan defaults wrong: %d/%d", cfg.PlanHorizon, cfg.PlanOutTokens)
	}
	dual := AgentConfig{Planner: llm.GPT4, Memory: MemoryConfig{Dual: true}}.withDefaults()
	if dual.Memory.ShortWindow != 6 || dual.Memory.LongBudget != 160 {
		t.Fatalf("dual defaults wrong: %+v", dual.Memory)
	}
}

func TestComplexityOrdering(t *testing.T) {
	if CentralizedComplexity(1) != 0 || DecentralizedComplexity(1) != 0 {
		t.Fatal("solo teams have no joint complexity")
	}
	for n := 2; n <= 12; n++ {
		if CentralizedComplexity(n) <= DecentralizedComplexity(n) {
			t.Fatalf("central complexity should dominate at n=%d", n)
		}
	}
	if CentralizedComplexity(12) <= CentralizedComplexity(4) {
		t.Fatal("complexity should grow with team size")
	}
}

func TestJointID(t *testing.T) {
	j := &Joint{Assign: map[int]Subgoal{0: stubGoal{"a"}, 1: nil}}
	id := j.ID()
	if id != "joint|a|idle" {
		t.Fatalf("Joint ID = %q", id)
	}
	if j.Describe() != id {
		t.Fatal("Describe should mirror ID")
	}
}

func TestAgentSenseChargesLatencyAndTrace(t *testing.T) {
	b := sensing.MaskRCNN
	a, clock, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Sensing: &b, Execution: true})
	d := newStub()
	obs := a.Sense(d, 0)
	if clock.Now() <= 0 {
		t.Fatal("sensing charged no latency")
	}
	if len(tr.Events) != 1 || tr.Events[0].Module != trace.Sensing {
		t.Fatalf("trace = %+v", tr.Events)
	}
	if len(obs.Records) > 1 {
		t.Fatal("stub emits one record")
	}
}

func TestAgentSenseNilBackendFree(t *testing.T) {
	a, clock, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	a.Sense(newStub(), 0)
	if clock.Now() != 0 || len(tr.Events) != 0 {
		t.Fatal("nil sensing backend should cost nothing")
	}
}

func TestAgentSenseDropsMissedEntities(t *testing.T) {
	lossy := sensing.Backend{Name: "lossy", Base: 1, MissProb: 1}
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Sensing: &lossy, Execution: true})
	obs := a.Sense(newStub(), 0)
	if len(obs.Records) != 0 {
		t.Fatal("MissProb=1 should drop all non-static records")
	}
}

func TestAgentRetrieveChargesMemoryModule(t *testing.T) {
	a, clock, tr := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	a.Store.Add(memory.Record{Step: 0, Key: "x", Tokens: 5})
	ret := a.Retrieve(0, 0)
	if len(ret.Records) != 1 {
		t.Fatalf("retrieved %d records", len(ret.Records))
	}
	if clock.Now() == 0 || len(tr.Events) != 1 || tr.Events[0].Module != trace.Memory {
		t.Fatal("retrieval accounting missing")
	}
}

func TestAgentRetrieveDisabledMemory(t *testing.T) {
	a, clock, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	ret := a.Retrieve(0, 0)
	if len(ret.Records) != 0 || clock.Now() != 0 {
		t.Fatal("disabled memory should be free and empty")
	}
}

func TestAgentPlanProducesOracleDecision(t *testing.T) {
	a, _, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	pr := a.Plan(d, 0, memory.Retrieval{}, d.Observe(0), nil)
	if !pr.UsedLLM || pr.Subgoal == nil || pr.Subgoal.ID() != "advance" {
		t.Fatalf("plan = %+v", pr)
	}
	found := false
	for _, ev := range tr.Events {
		if ev.Module == trace.Planning && ev.LLMCall {
			found = true
		}
	}
	if !found {
		t.Fatal("no planning LLM event")
	}
}

func TestAgentPlanHorizonSkipsLLM(t *testing.T) {
	a, _, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true, PlanHorizon: 3})
	d := newStub()
	calls := func() int {
		n := 0
		for _, ev := range tr.Events {
			if ev.Module == trace.Planning && ev.LLMCall {
				n++
			}
		}
		return n
	}
	for step := 0; step < 6; step++ {
		pr := a.Plan(d, step, memory.Retrieval{}, d.Observe(0), nil)
		if pr.Subgoal == nil {
			t.Fatal("nil subgoal under plan horizon")
		}
	}
	if got := calls(); got != 2 {
		t.Fatalf("planning LLM calls = %d, want 2 (one per 3 steps)", got)
	}
}

func TestAgentActSelectAddsExecutionLLM(t *testing.T) {
	a, _, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true, ActSelect: true})
	d := newStub()
	a.Plan(d, 0, memory.Retrieval{}, d.Observe(0), nil)
	found := false
	for _, ev := range tr.Events {
		if ev.Module == trace.Execution && ev.Kind == "act-select" && ev.LLMCall {
			found = true
		}
	}
	if !found {
		t.Fatal("act-select call missing")
	}
}

func TestAgentExecuteChargesEffort(t *testing.T) {
	a, clock, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	res := a.Execute(d, 0, PlanResult{Subgoal: stubGoal{"advance"}})
	if !res.Achieved || d.progress != 1 {
		t.Fatalf("execute failed: %+v", res)
	}
	if clock.Now() == 0 {
		t.Fatal("execution latency not charged")
	}
	if tr.Events[len(tr.Events)-1].Module != trace.Execution {
		t.Fatal("execution event missing")
	}
}

func TestAgentExecuteNilSubgoal(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	if a.Execute(newStub(), 0, PlanResult{}).Achieved {
		t.Fatal("nil subgoal should not achieve")
	}
}

func TestAgentExecuteWithoutModuleEmitsPrimitives(t *testing.T) {
	a, _, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: false})
	d := newStub()
	a.Execute(d, 0, PlanResult{
		Subgoal:  stubGoal{"advance"},
		Proposal: Proposal{Good: stubGoal{"advance"}, Corruptions: []Subgoal{stubGoal{"wrong"}}},
	})
	prims := 0
	for _, ev := range tr.Events {
		if ev.Kind == "primitive" && ev.LLMCall {
			prims++
		}
	}
	if prims != primitiveCalls {
		t.Fatalf("primitive LLM calls = %d, want %d", prims, primitiveCalls)
	}
}

func TestReflectionCorrectsAndUnsticks(t *testing.T) {
	refl := perfectPlanner()
	a, _, _ := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Reflector: &refl,
		Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	d := newStub()
	pr := PlanResult{Subgoal: stubGoal{"wrong"}, Corrupted: true}
	res := execution.Result{Achieved: false}
	a.Reflect(d, 0, pr, res)
	if a.lastFailed != nil {
		t.Fatal("reflection should clear the failure loop")
	}
	if d.corrections != 1 {
		t.Fatalf("corrections = %d, want 1", d.corrections)
	}
	ret := a.Store.Retrieve(0, 0)
	foundCorrection := false
	for _, r := range ret.Records {
		if r.Key == "corrected:wrong" {
			foundCorrection = true
		}
	}
	if !foundCorrection {
		t.Fatal("correction record not stored")
	}
}

func TestNoReflectionSticksOnFailure(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	pr := PlanResult{Subgoal: stubGoal{"wrong"}, Corrupted: true}
	a.Reflect(d, 0, pr, execution.Result{Achieved: false})
	if a.lastFailed == nil || a.lastFailed.ID() != "wrong" {
		t.Fatal("failure should stick without reflection")
	}
	// Success clears it.
	a.Reflect(d, 1, PlanResult{Subgoal: stubGoal{"advance"}}, execution.Result{Achieved: true})
	if a.lastFailed != nil {
		t.Fatal("success should clear the loop")
	}
}

func TestPersistenceLoopRepeatsFailedPlan(t *testing.T) {
	// Without reflection, after a failure the next plans frequently repeat
	// the failed subgoal.
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	a.lastFailed = stubGoal{"wrong"}
	repeats := 0
	const n = 200
	for i := 0; i < n; i++ {
		pr := a.Plan(d, i, memory.Retrieval{}, d.Observe(0), nil)
		if pr.Subgoal.ID() == "wrong" {
			repeats++
		}
		a.lastFailed = stubGoal{"wrong"} // re-arm
	}
	rate := float64(repeats) / n
	if rate < persistProb-0.1 || rate > persistProb+0.1 {
		t.Fatalf("persistence rate = %.2f, want ≈%.2f", rate, persistProb)
	}
}

func TestComposeMessageSharesFirsthandOnly(t *testing.T) {
	comm := perfectPlanner()
	a, _, _ := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Comms: &comm,
		Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	a.Store.Add(memory.Record{Step: 0, Kind: memory.Observation, Key: "obj:1", Tokens: 5})
	a.Store.Add(memory.Record{Step: 0, Kind: memory.Dialogue, Key: "obj:2", Tokens: 5})
	msg, ok := a.ComposeMessage(0, Observation{}, 0)
	if !ok {
		t.Fatal("no message composed")
	}
	for _, r := range msg.Records {
		if r.Key == "obj:2" {
			t.Fatal("received dialogue must not be re-broadcast")
		}
	}
	if len(msg.Records) != 1 {
		t.Fatalf("message records = %d, want 1 firsthand", len(msg.Records))
	}
}

func TestComposeMessageWithoutComms(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	if _, ok := a.ComposeMessage(0, Observation{}, 0); ok {
		t.Fatal("agent without comms module composed a message")
	}
}

func TestRememberStoresActionAndClaim(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	d := newStub()
	pr := PlanResult{Subgoal: stubGoal{"advance"}}
	a.Remember(d, 0, d.Observe(0), nil, pr, execution.Result{Achieved: true})
	ret := a.Store.Retrieve(0, 0)
	var hasAct, hasClaim, hasObs bool
	for _, r := range ret.Records {
		switch {
		case r.Key == "act:0":
			hasAct = true
		case r.Key == "claim:0":
			hasClaim = true
		case r.Key == "progress":
			hasObs = true
		}
	}
	if !hasAct || !hasClaim || !hasObs {
		t.Fatalf("memory after Remember missing records: act=%v claim=%v obs=%v", hasAct, hasClaim, hasObs)
	}
	if d.claims != 1 {
		t.Fatal("claim hook not invoked")
	}
}

func TestResetClearsEpisodeState(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	a.Store.Add(memory.Record{Step: 0, Key: "x", Tokens: 1})
	a.lastFailed = stubGoal{"wrong"}
	a.planCooldown = 2
	a.Reset()
	if len(a.Store.Retrieve(0, 0).Records) != 0 || a.lastFailed != nil || a.planCooldown != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestMarkMessageUseful(t *testing.T) {
	comm := perfectPlanner()
	a, _, tr := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Comms: &comm,
		Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	a.Store.Add(memory.Record{Step: 0, Kind: memory.Observation, Key: "obj:1", Tokens: 5})
	a.ComposeMessage(0, Observation{}, 0)
	a.MarkMessageUseful(0, true)
	stats := tr.Messages()
	if stats.Generated != 1 || stats.Useful != 1 {
		t.Fatalf("message stats = %+v", stats)
	}
}

func TestMultipleChoiceReducesOutputTokens(t *testing.T) {
	free, _, trFree := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	free.Plan(d, 0, memory.Retrieval{}, d.Observe(0), nil)

	mc, _, trMC := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Execution: true,
		MultipleChoice: &prompt.MultipleChoice{Options: 4, ErrorDiscount: 0.45},
	})
	mc.Plan(d, 0, memory.Retrieval{}, d.Observe(0), nil)

	planOut := func(tr *trace.Trace) (out, in int) {
		for _, ev := range tr.Events {
			if ev.Module == trace.Planning {
				return ev.OutputTokens, ev.PromptTokens
			}
		}
		return 0, 0
	}
	freeOut, freeIn := planOut(trFree)
	mcOut, mcIn := planOut(trMC)
	if freeOut != 140 {
		t.Fatalf("free-form plan output = %d, want 140", freeOut)
	}
	if mcOut >= freeOut {
		t.Fatalf("multiple choice should shrink output: %d vs %d", mcOut, freeOut)
	}
	if mcIn <= freeIn {
		t.Fatalf("multiple choice should enlarge prompt (option list): %d vs %d", mcIn, freeIn)
	}
}

// beliefDomain records the list each BuildBelief call receives.
type beliefDomain struct {
	*stubDomain
	got [][]memory.Record
}

func (d *beliefDomain) BuildBelief(agent int, recs []memory.Record) Belief {
	d.got = append(d.got, append([]memory.Record(nil), recs...))
	return d.stubDomain.BuildBelief(agent, recs)
}

// TestBeliefListsWindowObservationExtra pins the in-place belief list: the
// domain sees window ‖ observation ‖ extra in that order, and the
// Retrieval the list was appended to keeps its window.
func TestBeliefListsWindowObservationExtra(t *testing.T) {
	rec := func(key string, step int) memory.Record {
		return memory.Record{Step: step, Kind: memory.Observation, Key: key, Payload: key, Tokens: 3}
	}
	extra := []memory.Record{rec("msg:a", 2), rec("msg:b", 2)}
	for _, tc := range []struct {
		name   string
		mem    MemoryConfig
		stored int
		extra  []memory.Record
	}{
		{"store", MemoryConfig{Capacity: 3}, 6, nil},
		{"store+extra", MemoryConfig{Capacity: 3}, 6, extra},
		{"store empty window", MemoryConfig{Capacity: 3}, 0, extra},
		{"dual", MemoryConfig{Dual: true}, 6, nil},
		{"dual+extra", MemoryConfig{Dual: true}, 6, extra},
		{"dual empty window", MemoryConfig{Dual: true}, 0, extra},
		{"memory disabled", MemoryConfig{Capacity: 0}, 6, extra},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Memory: tc.mem, Execution: true})
			for i := 0; i < tc.stored; i++ {
				a.Store.Add(rec(fmt.Sprintf("k%d", i), i/2))
			}
			d := &beliefDomain{stubDomain: newStub()}
			obs := Observation{Records: []memory.Record{rec("o1", 2), rec("o2", 2), rec("o3", 2)}, Tokens: 9}
			ret := a.Retrieve(2, len(obs.Records)+len(tc.extra))
			window := append([]memory.Record(nil), ret.Records...)
			if tc.stored > 0 && tc.mem.Capacity != 0 && len(window) == 0 {
				t.Fatal("test set-up left the window empty")
			}
			a.Plan(d, 2, ret, obs, tc.extra)
			want := append(append(append([]memory.Record(nil), window...), obs.Records...), tc.extra...)
			if len(d.got) != 1 || !reflect.DeepEqual(d.got[0], want) {
				t.Fatalf("BuildBelief got %v, want %v", d.got, want)
			}
			if !reflect.DeepEqual(append([]memory.Record(nil), ret.Records...), window) {
				t.Fatalf("ret.Records changed by planning: %v, was %v", ret.Records, window)
			}
		})
	}
}

var beliefSink []memory.Record

// TestRetrieveAndBeliefAllocateOnce pins the fused list: retrieval sized
// for the observation and extra records, then the belief list, make one
// record-slice allocation between them.
func TestRetrieveAndBeliefAllocateOnce(t *testing.T) {
	obs := Observation{Records: []memory.Record{{Key: "o1", Tokens: 2}, {Key: "o2", Tokens: 2}}}
	extra := []memory.Record{{Key: "m", Tokens: 1}}
	for _, st := range []MemStore{memory.NewStore(4), memory.NewDual(4, 100)} {
		for i := 0; i < 12; i++ {
			st.Add(memory.Record{Step: i / 3, Key: fmt.Sprintf("k%d", i), Tokens: 2, Static: i == 0})
		}
		if n := testing.AllocsPerRun(100, func() {
			beliefSink = beliefRecords(st.Retrieve(3, len(obs.Records)+len(extra)), obs, extra)
		}); n != 1 {
			t.Fatalf("%T: retrieve + belief list allocs/run = %v, want 1", st, n)
		}
		if len(beliefSink) != len(st.Retrieve(3, 0).Records)+3 {
			t.Fatalf("%T: belief list has %d records", st, len(beliefSink))
		}
	}
}
