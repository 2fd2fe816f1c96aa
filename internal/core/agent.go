package core

import (
	"fmt"
	"strconv"
	"time"

	"embench/internal/llm"
	"embench/internal/modules/comms"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/modules/planning"
	"embench/internal/modules/reflection"
	"embench/internal/rng"
	"embench/internal/simclock"
	"embench/internal/trace"
)

// MemStore is the store shape the agent needs; both memory.Store and
// memory.Dual satisfy it.
type MemStore interface {
	Add(memory.Record)
	AddAll([]memory.Record)
	Retrieve(currentStep, spare int) memory.Retrieval
	Clear()
}

// Claimer is implemented by domains whose agents announce intents
// ("I'm fetching object 3") so teammates avoid duplicated work.
type Claimer interface {
	// ClaimRecord renders agent's commitment to g as a memory record, or
	// reports false when the subgoal carries no claim (explore, idle).
	ClaimRecord(agent int, g Subgoal) (memory.Record, bool)
}

// Corrector is implemented by domains that can turn a failed execution
// into corrective knowledge — what the agent physically observed when its
// plan met reality. The reflection module gates whether these records ever
// reach memory.
type Corrector interface {
	CorrectionRecords(agent int, g Subgoal, res execution.Result) []memory.Record
}

// Agent is one embodied agent's module stack and per-episode state.
type Agent struct {
	ID  int
	Cfg AgentConfig

	label  string // trace identity: "agent<ID>" or "central"
	actKey string // memory key of the agent's action records, "act:<ID>"

	Store      MemStore
	planClient *llm.Client
	commClient *llm.Client
	reflClient *llm.Client
	checker    reflection.Checker

	clock  *simclock.Clock
	tracer *trace.Trace

	senseStream   *rng.Stream
	persistStream *rng.Stream
	reflStream    *rng.Stream

	lastFailed    Subgoal // failed, uncorrected decision (loop driver)
	loopRepeats   int     // consecutive re-issues of lastFailed
	planCooldown  int     // steps remaining under the current plan (Rec. 7)
	lastShared    int     // last step whose records were messaged out
	lastAnnounced string  // last commitment broadcast under Rec. 8 gating
	// overlapCredit is the async pipeline's remaining decode window
	// (Cfg.Pipeline): the last plan/act-select call's Response.Decode, not
	// yet consumed by next-step sensing/retrieval charges. Always zero
	// with the pipeline off, so chargeOverlapped degenerates to a plain
	// clock advance.
	overlapCredit time.Duration
}

// NewAgent builds an agent. The id is used both as the environment agent
// index and to derive independent random streams; CentralAgent is valid.
func NewAgent(id int, cfg AgentConfig, src *rng.Source, clock *simclock.Clock, tracer *trace.Trace) *Agent {
	cfg = cfg.withDefaults()
	name := fmt.Sprintf("agent%d", id)
	if id == CentralAgent {
		name = "central"
	}
	a := &Agent{
		ID: id, Cfg: cfg, label: name, actKey: "act:" + strconv.Itoa(id), clock: clock, tracer: tracer,
		senseStream:   src.NewStream(name + "/sense"),
		persistStream: src.NewStream(name + "/persist"),
		reflStream:    src.NewStream(name + "/reflect"),
		lastShared:    -1,
	}
	if cfg.Memory.Dual {
		a.Store = memory.NewDual(cfg.Memory.ShortWindow, cfg.Memory.LongBudget)
	} else {
		a.Store = memory.NewStore(cfg.Memory.Capacity)
	}
	a.planClient = llm.NewClient(cfg.Planner, src.NewStream(name+"/plan"), clock, tracer)
	if cfg.Comms != nil {
		a.commClient = llm.NewClient(*cfg.Comms, src.NewStream(name+"/comm"), clock, tracer)
	}
	if cfg.Reflector != nil {
		a.reflClient = llm.NewClient(*cfg.Reflector, src.NewStream(name+"/refl"), clock, tracer)
		a.checker = reflection.NewChecker(cfg.Reflector.Capability)
	}
	if cfg.Backend != nil {
		// All of the agent's modules hit the same shared deployment.
		a.planClient.SetBackend(cfg.Backend)
		if a.commClient != nil {
			a.commClient.SetBackend(cfg.Backend)
		}
		if a.reflClient != nil {
			a.reflClient.SetBackend(cfg.Backend)
		}
	}
	return a
}

// Sense runs the perception backend over the domain observation: charges
// inference latency and drops entity records the detector missed.
func (a *Agent) Sense(d Domain, step int) Observation {
	obs := d.Observe(a.ID)
	if a.Cfg.Sensing == nil {
		return obs
	}
	b := a.Cfg.Sensing
	lat := a.chargeOverlapped(b.Latency(obs.Entities))
	a.tracer.Record(trace.Event{
		Step: step, Agent: a.label, Module: trace.Sensing, Kind: b.Name, Latency: lat,
	})
	if b.MissProb <= 0 {
		return obs
	}
	kept := obs.Records[:0]
	tokens := 0
	for _, r := range obs.Records {
		if !r.Static && a.senseStream.Bernoulli(b.MissProb) {
			continue
		}
		kept = append(kept, r)
		tokens += r.Tokens
	}
	obs.Records = kept
	obs.Tokens = tokens
	return obs
}

// Retrieve reads memory into context, charging the retrieval cost. spare
// is the number of records the plan will list after memory (the
// observation plus any extra records): the retrieval leaves room for them,
// so planning builds its belief list in place (see beliefRecords).
func (a *Agent) Retrieve(step, spare int) memory.Retrieval {
	if a.Cfg.Memory.Capacity == 0 && !a.Cfg.Memory.Dual {
		return memory.Retrieval{}
	}
	ret := a.Store.Retrieve(step, spare)
	lat := a.chargeOverlapped(ret.Latency)
	a.tracer.Record(trace.Event{
		Step: step, Agent: a.label, Module: trace.Memory, Kind: "retrieve", Latency: lat,
	})
	return ret
}

// chargeOverlapped charges a sensing/retrieval latency to the agent's
// clock, first consuming any decode-overlap credit (Cfg.Pipeline): the
// overlapped portion costs no virtual time — it ran while the previous
// plan call's response was still streaming. Returns the time actually
// charged, which the trace records so module breakdowns stay consistent
// with SimDuration. With the pipeline off the credit is always zero and
// this is exactly clock.Advance(lat).
func (a *Agent) chargeOverlapped(lat time.Duration) time.Duration {
	if a.overlapCredit > 0 {
		if a.overlapCredit >= lat {
			a.overlapCredit -= lat
			lat = 0
		} else {
			lat -= a.overlapCredit
			a.overlapCredit = 0
		}
	}
	a.clock.Advance(lat)
	return lat
}

// beliefRecords lists retrieved memory, then the live observation, then
// any extra records such as freshly received messages. It appends in the
// room Retrieve left past ret.Records, so retrieval and belief share one
// allocation; ret.Records keeps its length and contents. Without that room
// (memory disabled, or a caller that sized it short) it allocates the
// list. With memory disabled the agent still perceives the present.
func beliefRecords(ret memory.Retrieval, obs Observation, extra []memory.Record) []memory.Record {
	recs := ret.Records
	if need := len(obs.Records) + len(extra); cap(recs)-len(recs) < need {
		recs = append(make([]memory.Record, 0, len(recs)+need), recs...)
	}
	recs = append(recs, obs.Records...)
	return append(recs, extra...)
}

// splitTokens separates retrieved records into memory vs dialogue prompt
// sections.
func splitTokens(ret memory.Retrieval) (memTokens, dlgTokens int) {
	for _, r := range ret.Records {
		if r.Kind == memory.Dialogue {
			dlgTokens += r.Tokens
		} else {
			memTokens += r.Tokens
		}
	}
	return memTokens, dlgTokens
}

// PlanResult is the outcome of one planning-module invocation.
type PlanResult struct {
	Subgoal   Subgoal
	Proposal  Proposal
	Corrupted bool
	UsedLLM   bool // false while executing under a multi-step plan
	Truncated bool
}

// Plan runs the planning module: build belief, query the oracle, pass it
// through the simulated LLM, apply the no-reflection persistence loop and
// the multi-step-execution cooldown.
func (a *Agent) Plan(d Domain, step int, ret memory.Retrieval, obs Observation, extra []memory.Record) PlanResult {
	belief := d.BuildBelief(a.ID, beliefRecords(ret, obs, extra))
	proposal := d.Propose(a.ID, belief)
	return a.decide(step, belief, proposal, ret, obs)
}

// PlanJoint is Plan for a centralized planner over a CentralDomain.
func (a *Agent) PlanJoint(d CentralDomain, step int, ret memory.Retrieval, obs Observation, extra []memory.Record) PlanResult {
	belief := d.BuildBelief(a.ID, beliefRecords(ret, obs, extra))
	proposal := d.ProposeJoint(belief)
	return a.decide(step, belief, proposal, ret, obs)
}

func (a *Agent) decide(step int, belief Belief, proposal Proposal, ret memory.Retrieval, obs Observation) PlanResult {
	prep := a.preparePlan(step, belief, proposal, ret, obs)
	if prep.Ready {
		return prep.Result
	}
	resp := a.planClient.Complete(prep.Req)
	res, selReq, needSel := a.FinishPlan(prep, resp)
	if needSel {
		res = a.FinishActSelect(res, a.planClient.Complete(selReq))
	}
	return res
}

// PlanPrep is a prepared planning query in flight between PreparePlan and
// FinishPlan — the seam step-phase aggregation needs to collect all
// agents' plan requests of a phase before any is served.
type PlanPrep struct {
	// Ready means no LLM call is needed (multi-step execution cooldown):
	// Result is final and Req is meaningless.
	Ready  bool
	Result PlanResult
	// Req is the planning query to issue on PlanClient.
	Req llm.Request

	step      int
	proposal  Proposal
	obsTokens int
}

// PreparePlan is the first half of Plan: build belief, query the oracle
// and assemble the planning request, without issuing it. Callers issue
// prep.Req themselves (individually or via llm.CompleteBatchMulti) and
// complete the module with FinishPlan/FinishActSelect. Plan is the
// single-call composition of the three.
func (a *Agent) PreparePlan(d Domain, step int, ret memory.Retrieval, obs Observation, extra []memory.Record) PlanPrep {
	belief := d.BuildBelief(a.ID, beliefRecords(ret, obs, extra))
	proposal := d.Propose(a.ID, belief)
	return a.preparePlan(step, belief, proposal, ret, obs)
}

func (a *Agent) preparePlan(step int, belief Belief, proposal Proposal, ret memory.Retrieval, obs Observation) PlanPrep {
	// Any unspent decode-overlap credit expires once the next plan is
	// submitted (or skipped under cooldown): the pipeline only overlaps
	// next-step preparation with the previous response's streaming tail.
	a.overlapCredit = 0
	// Multi-step execution (Rec. 7): while under a current plan, follow the
	// oracle directly — the expensive LLM reasoning already happened.
	if a.planCooldown > 0 {
		a.planCooldown--
		return PlanPrep{Ready: true, Result: PlanResult{Subgoal: proposal.Good, Proposal: proposal}}
	}
	memTokens, dlgTokens := splitTokens(ret)
	p := planning.Build(planning.Context{
		SystemTokens:   a.Cfg.SystemTokens,
		TaskTokens:     a.Cfg.TaskTokens,
		MemoryTokens:   memTokens,
		DialogueTokens: dlgTokens,
		ObsTokens:      obs.Tokens,
	})
	if a.Cfg.Compressor != nil {
		p, _ = a.Cfg.Compressor.Compress(p)
	}
	outTokens := a.Cfg.PlanOutTokens
	discount := 0.0
	if mc := a.Cfg.MultipleChoice; mc != nil {
		p, outTokens = mc.Apply(p, outTokens)
		discount = mc.ErrorDiscount
	}
	return PlanPrep{
		Req: llm.Request{
			Agent: a.label, Module: trace.Planning, Step: step, Kind: "plan",
			Prompt: p, OutTokens: outTokens,
			Good: proposal.Good, Corruptions: anySlice(proposal.Corruptions),
			Complexity: proposal.Complexity, Staleness: belief.Staleness,
			ErrorDiscount: discount,
		},
		step: step, proposal: proposal, obsTokens: obs.Tokens,
	}
}

// FinishPlan is the second half of Plan: fold the LLM response into a
// PlanResult, apply the no-reflection persistence loop and the multi-step
// cooldown. When the config runs CoELA-style action selection it returns
// the follow-up request (to issue on PlanClient, then FinishActSelect)
// with needSel true. The persistence draw consumes the agent's persist
// stream in exactly the same order as the unsplit path, so aggregated and
// per-agent runs stay decision-aligned.
func (a *Agent) FinishPlan(prep PlanPrep, resp llm.Response) (res PlanResult, selReq llm.Request, needSel bool) {
	res = PlanResult{
		Proposal:  prep.proposal,
		Corrupted: resp.Corrupted,
		UsedLLM:   true,
		Truncated: resp.Truncated,
	}
	res.Subgoal, _ = resp.Decision.(Subgoal)
	// Without reflection, a failed decision tends to be re-issued: the
	// model has no feedback telling it the plan didn't work. Loops are
	// bounded — context drift eventually breaks them even unaided.
	if a.Cfg.Reflector == nil && a.lastFailed != nil &&
		a.loopRepeats < maxLoopRepeats && a.persistStream.Bernoulli(persistProb) {
		res.Subgoal = a.lastFailed
		res.Corrupted = true
		a.loopRepeats++
	} else {
		a.loopRepeats = 0
	}
	if a.Cfg.PlanHorizon > 1 {
		a.planCooldown = a.Cfg.PlanHorizon - 1
	}
	// Async pipeline: the plan response's decode window becomes overlap
	// credit for the next step's sensing/retrieval. An act-select follow-up
	// supersedes it (last call wins — its tail is the one that overlaps).
	if a.Cfg.Pipeline {
		a.overlapCredit = resp.Decode
	}
	// CoELA-style action selection: a further LLM call turns the plan into
	// a concrete action and can itself pick wrong.
	if a.Cfg.ActSelect && res.Subgoal != nil {
		selReq = llm.Request{
			Agent: a.label, Module: trace.Execution, Step: prep.step, Kind: "act-select",
			Prompt:    planning.Build(planning.Context{SystemTokens: 120, TaskTokens: 40, ObsTokens: prep.obsTokens}),
			OutTokens: planning.ActSelectOutTokens,
			Good:      res.Subgoal, Corruptions: anySlice(prep.proposal.Corruptions),
			Complexity: prep.proposal.Complexity / 2,
		}
		return res, selReq, true
	}
	return res, llm.Request{}, false
}

// FinishActSelect folds the action-selection response into the plan
// result.
func (a *Agent) FinishActSelect(res PlanResult, sel llm.Response) PlanResult {
	if a.Cfg.Pipeline {
		a.overlapCredit = sel.Decode
	}
	if sg, ok := sel.Decision.(Subgoal); ok {
		if sel.Corrupted {
			res.Corrupted = true
		}
		res.Subgoal = sg
	}
	return res
}

// PlanClient exposes the planning-module client (aggregated phase batches
// issue prepared requests on it).
func (a *Agent) PlanClient() *llm.Client { return a.planClient }

func anySlice(gs []Subgoal) []any {
	out := make([]any, len(gs))
	for i, g := range gs {
		out[i] = g
	}
	return out
}

// Execute grounds the subgoal. With the execution module present the
// domain's low-level planners run and their effort is charged; without it
// the planner LLM must emit primitives itself, which both costs extra
// inference and usually fails (Fig. 3 "w/o Exec").
func (a *Agent) Execute(d Domain, step int, pr PlanResult) execution.Result {
	if pr.Subgoal == nil {
		return execution.Result{Note: "no decision"}
	}
	if !a.Cfg.Execution {
		ok := true
		for i := 0; i < primitiveCalls; i++ {
			resp := a.planClient.Complete(llm.Request{
				Agent: a.label, Module: trace.Execution, Step: step, Kind: "primitive",
				Prompt:    planning.Build(planning.Context{SystemTokens: 160, TaskTokens: 40, ObsTokens: 120}),
				OutTokens: planning.PrimitiveOutTokens,
				Good:      pr.Subgoal, Corruptions: anySlice(pr.Proposal.Corruptions),
				Complexity: primitiveComplexity,
			})
			if resp.Corrupted {
				ok = false
			}
		}
		if !ok {
			return execution.Result{Note: "primitive emission failed"}
		}
		return d.Execute(a.ID, pr.Subgoal)
	}
	res := d.Execute(a.ID, pr.Subgoal)
	lat := execution.Latency(res.Effort)
	a.clock.Advance(lat)
	a.tracer.Record(trace.Event{
		Step: step, Agent: a.label, Module: trace.Execution, Kind: "ground", Latency: lat,
		Note: res.Note,
	})
	return res
}

// Reflect judges the executed decision. A detected failure produces
// corrective memory records (what the agent saw when the plan met
// reality) and breaks persistence loops; without the module, failures
// linger as lastFailed.
func (a *Agent) Reflect(d Domain, step int, pr PlanResult, res execution.Result) {
	failed := !res.Achieved || pr.Corrupted
	if a.reflClient == nil {
		if failed {
			a.lastFailed = pr.Subgoal
		} else {
			a.lastFailed = nil
		}
		return
	}
	resp := a.reflClient.Complete(llm.Request{
		Agent: a.label, Module: trace.Reflection, Step: step, Kind: "reflect",
		Prompt:    planning.Build(planning.Context{SystemTokens: 140, TaskTokens: 40, ObsTokens: 110}),
		OutTokens: planning.ReflectOutTokens,
		Good:      true,
	})
	_ = resp
	verdict := a.checker.Judge(a.reflStream, failed)
	if verdict.FlaggedError {
		a.lastFailed = nil
		if c, ok := d.(Corrector); ok && pr.Subgoal != nil {
			a.Store.AddAll(c.CorrectionRecords(a.ID, pr.Subgoal, res))
		}
		return
	}
	if failed {
		a.lastFailed = pr.Subgoal
	} else {
		a.lastFailed = nil
	}
}

// ComposeMessage runs the communication module: select what to share,
// generate the message with the comms LLM, and return it for delivery.
// The bool reports whether a message was produced.
func (a *Agent) ComposeMessage(step int, obs Observation, dialogueTokens int) (comms.Message, bool) {
	if a.commClient == nil {
		return comms.Message{}, false
	}
	var share []memory.Record
	if s, ok := a.Store.(*memory.Store); ok && a.Cfg.Memory.Capacity != 0 {
		share = s.Since(a.lastShared)
	} else if dual, ok := a.Store.(*memory.Dual); ok {
		share = append(dual.Long.Since(a.lastShared), dual.Short.Since(a.lastShared)...)
	} else {
		share = obs.Records
	}
	// Share first-hand knowledge only: relaying received dialogue would
	// amplify traffic quadratically with nothing new in it.
	firsthand := make([]memory.Record, 0, len(share))
	for _, r := range share {
		if r.Kind != memory.Dialogue {
			firsthand = append(firsthand, r)
		}
	}
	share = comms.Filter(firsthand, a.lastShared, a.Cfg.MessageFilter)
	a.lastShared = step
	tokens := comms.MessageTokens(share)
	resp := a.commClient.Complete(llm.Request{
		Agent: a.label, Module: trace.Comms, Step: step, Kind: "message",
		Prompt: planning.Build(planning.Context{
			SystemTokens:   a.Cfg.SystemTokens,
			TaskTokens:     a.Cfg.TaskTokens / 2,
			MemoryTokens:   tokens,
			DialogueTokens: dialogueTokens,
			ObsTokens:      obs.Tokens / 2,
		}),
		OutTokens: planning.MessageOutTokens,
		Good:      true,
	})
	_ = resp
	return comms.Message{From: a.ID, To: comms.Broadcast, Step: step, Records: share, Tokens: tokens}, true
}

// ShouldAnnounce implements the Rec. 8 gate: under planning-then-
// communication, a message is generated only when the plan produced a new
// commitment — repeating an unchanged intent adds nothing. It records the
// announced commitment.
func (a *Agent) ShouldAnnounce(sg Subgoal) bool {
	if sg == nil {
		return false
	}
	if sg.ID() == a.lastAnnounced {
		return false
	}
	a.lastAnnounced = sg.ID()
	return true
}

// MarkMessageUseful back-annotates the latest comms event for this agent
// at the given step with whether the message proved novel to any receiver
// (Sec. V-D message-efficiency accounting).
func (a *Agent) MarkMessageUseful(step int, useful bool) {
	for i := len(a.tracer.Events) - 1; i >= 0; i-- {
		ev := &a.tracer.Events[i]
		if ev.Agent == a.label && ev.Module == trace.Comms && ev.Step == step && ev.Kind == "message" {
			ev.Useful = useful
			return
		}
	}
}

// Remember commits records (observations, received dialogue, actions,
// claims) to the memory module.
func (a *Agent) Remember(d Domain, step int, obs Observation, dialogue []memory.Record, pr PlanResult, res execution.Result) {
	a.Store.AddAll(obs.Records)
	a.Store.AddAll(dialogue)
	if pr.Subgoal != nil {
		a.Store.Add(memory.Record{
			Step: step, Kind: memory.Action, Key: a.actKey,
			Payload: pr.Subgoal.ID(), Tokens: 10, Routine: true,
		})
		if cl, ok := d.(Claimer); ok && res.Achieved {
			if rec, has := cl.ClaimRecord(a.ID, pr.Subgoal); has {
				rec.Step = step
				a.Store.Add(rec)
			}
		}
	}
}

// Reset clears per-episode state for reuse.
func (a *Agent) Reset() {
	a.Store.Clear()
	a.lastFailed = nil
	a.loopRepeats = 0
	a.planCooldown = 0
	a.lastShared = -1
	a.lastAnnounced = ""
	a.overlapCredit = 0
}

// StepClock exposes the agent's clock (used by runners to overlap spans in
// parallel mode).
func (a *Agent) StepClock() *simclock.Clock { return a.clock }

// PlanLatencyEstimate reports the deterministic latency of one planning
// call with typical token counts — used by ablation benches.
func (a *Agent) PlanLatencyEstimate(promptTokens int) time.Duration {
	return a.Cfg.Planner.Latency(promptTokens, planning.PlanOutTokens)
}
