// Package multiagent drives episodes under the paper's four execution
// paradigms: single-agent modular (Fig. 1b), single-agent end-to-end
// (Fig. 1c), multi-agent centralized (Fig. 1d) and multi-agent
// decentralized (Fig. 1e), plus the hierarchical-cluster variant of
// Rec. 9.
//
// Runners own the virtual clock and the trace. Per-agent work is timed on
// per-agent clocks and folded into the episode timeline either
// sequentially (the paper's baseline pipelines) or in parallel
// (the Takeaway-6 optimization).
package multiagent

import (
	"time"

	"embench/internal/core"
	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/modules/comms"
	"embench/internal/modules/memory"
	"embench/internal/rng"
	"embench/internal/serve"
	"embench/internal/serve/obs"
	"embench/internal/simclock"
	"embench/internal/trace"
)

// Options tune a run.
type Options struct {
	// Seed roots all randomness; equal seeds give identical episodes.
	Seed uint64
	// Parallel overlaps independent per-agent spans within a step instead
	// of serializing them (Takeaway 6).
	Parallel bool
	// Rounds computes dialogue rounds per step from team size for
	// decentralized systems; nil = 1 + (n-1)/4 (the paper observes rounds
	// grow with the team).
	Rounds func(agents int) int
	// ClusterSize > 0 enables hierarchical cooperation (Rec. 9): dialogue
	// is scoped to clusters of this size, with only cluster heads
	// exchanging digests across clusters.
	ClusterSize int
	// Serve routes every agent's LLM traffic through one shared serving
	// endpoint (queueing, continuous batching, prefix cache — see
	// internal/serve) instead of a dedicated per-client deployment. A zero
	// Profile inside defaults to the workload's planner profile. nil = off.
	Serve *serve.Config
	// Backend attaches an externally owned serving backend (a
	// serve.FleetClient when many episodes share one deployment) instead
	// of building a per-episode endpoint from Serve. Takes precedence over
	// Serve. The caller owns the backend's lifecycle; the episode only
	// routes its LLM calls through it and reads its serving stats at
	// finish.
	Backend llm.Backend
	// Sink attaches a flight-recorder sink (internal/serve/obs) to the
	// per-episode endpoint built from Serve, recording the full request
	// lifecycle — submit, route, batch, cache, complete. Ignored when
	// Backend is set (attach the sink to the externally owned fleet
	// instead) or when Serve is nil (direct serving has no endpoint).
	// nil = off, the zero-cost default.
	Sink obs.Sink
	// Aggregate turns on step-phase query aggregation (Rec. 1 end to end)
	// in decentralized runners: all agents' plan calls of a step — and
	// their act-select follow-ups — are collected into one explicit
	// serving batch (llm.CompleteBatchMulti) instead of being issued
	// per-agent and relying on the endpoint's join window to coalesce
	// them. RNG streams stay aligned with the per-agent path; the whole
	// team now plans before anyone acts, so the only decision input that
	// can shift is belief staleness (assessed at the step's start for all
	// agents instead of mid-step).
	Aggregate bool
	// Pipeline turns on the async agent pipeline for every agent in the
	// run (core.AgentConfig.Pipeline): each plan/act-select call's decode
	// window is credited against the agent's next-step sensing and
	// retrieval charges. Latency accounting only — decisions and
	// submission order are identical with it off.
	Pipeline bool
}

// servingStats is the seam finish() reads episode serving statistics
// through; serve.Endpoint and serve.FleetClient both implement it.
type servingStats interface {
	ServingStats() metrics.Serving
}

// newEndpoint attaches the episode's serving backend to cfg and returns
// the stats source to read at finish (nil when serving is direct). With
// opt.Backend set, the externally owned backend (e.g. a fleet client) is
// used as-is; otherwise opt.Serve builds a fresh per-episode endpoint —
// an endpoint carries timeline state, and per-episode construction is
// what keeps parallel episode runs bit-identical to sequential ones.
func (o Options) newEndpoint(cfg *core.AgentConfig) servingStats {
	cfg.Pipeline = cfg.Pipeline || o.Pipeline
	if o.Backend != nil {
		cfg.Backend = o.Backend
		if s, ok := o.Backend.(servingStats); ok {
			return s
		}
		return nil
	}
	if o.Serve == nil {
		return nil
	}
	sc := *o.Serve
	if sc.Profile.Name == "" {
		sc.Profile = cfg.Planner
	}
	ep := serve.New(sc)
	if o.Sink != nil {
		ep.SetSink(o.Sink)
	}
	cfg.Backend = ep
	return ep
}

func (o Options) rounds(n int) int {
	if o.Rounds != nil {
		return o.Rounds(n)
	}
	if n <= 1 {
		return 0
	}
	return 1 + (n-1)/4
}

// Outcome bundles an episode's metrics with its full trace.
type Outcome struct {
	Episode metrics.Episode
	Trace   *trace.Trace
}

// finish reduces the run into an Outcome. The episode duration comes from
// the runner's timeline clock, which respects parallel overlap; serving
// statistics (nil when serving direct) ride along in the episode — for a
// fleet episode they are the episode's own share of the shared endpoint's
// traffic.
func finish(d core.Domain, tr *trace.Trace, clock *simclock.Clock, stats servingStats) Outcome {
	success := d.Success()
	reachedLimit := !success && d.Step() >= d.MaxSteps()
	ep := metrics.FromTrace(tr, success, reachedLimit, d.Step())
	ep.SimDuration = clock.Now()
	if stats != nil {
		ep.Serving = stats.ServingStats()
	}
	return Outcome{Episode: ep, Trace: tr}
}

// agentSet builds one core.Agent per domain agent, each on its own clock.
type agentSet struct {
	agents []*core.Agent
	clocks []*simclock.Clock
	marks  []time.Duration
}

func newAgentSet(n int, cfg core.AgentConfig, src *rng.Source, tr *trace.Trace) *agentSet {
	s := &agentSet{marks: make([]time.Duration, n)}
	for i := 0; i < n; i++ {
		c := simclock.New()
		s.clocks = append(s.clocks, c)
		s.agents = append(s.agents, core.NewAgent(i, cfg, src, c, tr))
	}
	return s
}

// beginPhase snapshots every agent clock.
func (s *agentSet) beginPhase() {
	for i, c := range s.clocks {
		s.marks[i] = c.Now()
	}
}

// endPhase folds the per-agent deltas into the timeline: sum when
// sequential, max when parallel.
func (s *agentSet) endPhase(timeline *simclock.Clock, parallel bool) {
	var deltas []time.Duration
	for i, c := range s.clocks {
		deltas = append(deltas, c.Now()-s.marks[i])
	}
	if parallel {
		timeline.AdvanceParallel(deltas...)
		return
	}
	for _, d := range deltas {
		timeline.Advance(d)
	}
}

// hasEquivalent reports whether the store already holds this fact in the
// same or a fresher version.
func hasEquivalent(s *memory.Store, r memory.Record) bool {
	if r.Key == "" {
		return false
	}
	prev, ok := s.Latest(r.Key)
	if !ok || prev.Step < r.Step {
		return false
	}
	return memory.SamePayload(prev.Payload, r.Payload)
}

// deliver routes messages to their recipients: checks novelty against each
// receiver's memory, stores the records as dialogue, and returns whether
// any receiver learned something.
func deliver(msg comms.Message, recipients []*core.Agent) bool {
	useful := false
	for _, recv := range recipients {
		if recv.ID == msg.From {
			continue
		}
		var known func(memory.Record) bool
		switch store := recv.Store.(type) {
		case *memory.Store:
			if comms.Novel(msg, store) {
				useful = true
			}
			known = func(r memory.Record) bool { return hasEquivalent(store, r) }
		case *memory.Dual:
			if comms.Novel(msg, store.Short) || comms.Novel(msg, store.Long) {
				useful = true
			}
			known = func(r memory.Record) bool {
				return hasEquivalent(store.Short, r) || hasEquivalent(store.Long, r)
			}
		default:
			useful = true
			known = func(memory.Record) bool { return false }
		}
		for _, r := range msg.Records {
			// Deduplicate: with broadcast dialogue every agent hears the
			// same fact from everyone; storing each copy would bloat both
			// retrieval latency and prompt tokens beyond the content.
			if known(r) {
				continue
			}
			dl := r
			dl.Kind = memory.Dialogue
			dl.Step = msg.Step
			recv.Store.Add(dl)
		}
	}
	return useful
}
