package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"embench/internal/core"
	"embench/internal/metrics"
	"embench/internal/multiagent"
	"embench/internal/rng"
	"embench/internal/runner"
	"embench/internal/serve"
	"embench/internal/systems"
	"embench/internal/trace"
	"embench/internal/world"
)

// workload is one benchmark input family. setup turns the run's seed into a
// fixed cycle of ops; timed and traced runs replay that cycle, so every
// run of one seed does identical simulated work and only host noise varies.
type workload struct {
	name string
	// tailPct is the op-time percentile reported as op_ms_tail. It is fixed
	// per workload so that runs stay comparable, and leaves at least 18 ops
	// beyond it in a 20 s run on a 2-core host.
	tailPct float64
	// warmOps is how many ops from the start of the cycle each set-up runs
	// before timing begins.
	warmOps int
	setup   func(seed uint64) (cycle, error)
}

// cycle is the fixed list of ops a seed expands to.
type cycle interface {
	len() int
	// run executes op k. With t == nil it calls the program exactly as a
	// user would; with a tracer it decorates the program's seams.
	run(k int, t *tracer) (opResult, error)
}

// SLO is the simulated per-request latency limit of sim_slo_attainment.
const SLO = 60 * time.Second

// Workload parameters. Episode costs vary widely from seed to seed, so a
// cycle holds enough episodes that the host metrics of different seeds agree
// within their bounds; one cycle still fits several times in a 20 s run on a
// 2-core host.
const (
	fleetGroups   = 16 // fleet groups per cycle
	fleetEpisodes = 16 // episodes sharing one endpoint
	fleetTeam     = 4
	teamEpisodes  = 96 // per system, so 192 episodes per cycle
	teamSize      = 10
	replayTraces  = 4 // traffic traces per cycle
)

var workloads = []workload{
	// 16 CoELA hard team-4 episodes share one 2-replica endpoint via
	// runner.RunFleet: the whole stack, env stepping, agent modules,
	// closed-loop admission and the fleet merge.
	{
		name:    "fleet-coela",
		tailPct: 90,
		warmOps: 2,
		setup:   setupFleet,
	},
	// CoELA and MindAgent, hard, team 10, direct serving via
	// systems.Workload.Run: large-team prompts, dialogue, memory and GC; the
	// serve layer does no work.
	{
		name:    "team-scale",
		tailPct: 95,
		warmOps: 16,
		setup:   setupTeam,
	},
	// serve.Replay of 160 tenants in periodic 3-min bursts per 10 min on 8
	// replicas: admission queues run deep and the cache working set exceeds
	// its budget.
	{
		name:    "replay-bursty",
		tailPct: 95,
		warmOps: replayTraces,
		setup:   setupBursty,
	},
	// serve.Replay of 192 Poisson tenants with faults, 30 s deadlines, retry,
	// hedge and shed: the separate resilient event loop with crash requeue.
	{
		name:    "replay-resilient",
		tailPct: 95,
		warmOps: replayTraces,
		setup:   setupResilient,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endpoint is the shared serving deployment of fleet-coela and both replay
// workloads: 8192-token prefix caches with cache-affinity routing.
func endpoint(replicas, batch int, window time.Duration) serve.Config {
	w, _ := systems.Get("CoELA")
	return serve.Config{
		Profile:     w.Config.Planner,
		Replicas:    replicas,
		MaxBatch:    batch,
		MaxWait:     window,
		Routing:     serve.RouteCacheAffinity,
		CacheTokens: 8192,
	}
}

// episode is one agent-workload episode input.
type episode struct {
	w        systems.Workload
	agents   int
	seed     uint64
	maxSteps int
}

func newEpisode(name string, agents int, seed uint64) (episode, error) {
	w, ok := systems.Get(name)
	if !ok {
		return episode{}, fmt.Errorf("no system %q", name)
	}
	// The step cap is a property of the task instance; a throwaway domain
	// built from the same seed reads it for the output check.
	d := w.NewDomain(agents, world.Hard, rng.New(seed))
	return episode{w: w, agents: agents, seed: seed, maxSteps: d.MaxSteps()}, nil
}

// run executes the episode. With a recorder, its domain and its backend, if
// any, are wrapped so that their calls become spans.
func (e episode) run(opt multiagent.Options, rec *recorder) multiagent.Outcome {
	w := e.w
	opt.Seed = e.seed
	if rec != nil {
		newDomain := w.NewDomain
		w.NewDomain = func(agents int, diff world.Difficulty, src *rng.Source) core.Domain {
			return wrapDomain(newDomain(agents, diff, src), rec)
		}
		if opt.Backend != nil {
			opt.Backend = wrapBackend(opt.Backend, rec)
		}
	}
	return w.Run(world.Hard, e.agents, opt)
}

// fleetCycle: each op is one fleet group of CoELA episodes on one endpoint.
type fleetCycle struct {
	cfg    serve.Config
	groups [][]episode
}

func setupFleet(seed uint64) (cycle, error) {
	c := &fleetCycle{cfg: endpoint(2, 4, 0)}
	if _, err := serve.TryNew(c.cfg); err != nil {
		return nil, err
	}
	for g := 0; g < fleetGroups; g++ {
		var grp []episode
		for i := 0; i < fleetEpisodes; i++ {
			e, err := newEpisode("CoELA", fleetTeam, runner.EpisodeSeed(seed, g*fleetEpisodes+i))
			if err != nil {
				return nil, err
			}
			grp = append(grp, e)
		}
		c.groups = append(c.groups, grp)
	}
	return c, nil
}

func (c *fleetCycle) len() int { return len(c.groups) }

func (c *fleetCycle) run(k int, t *tracer) (opResult, error) {
	grp := c.groups[k]
	r := opResult{fleet: true}
	for _, e := range grp {
		r.maxSteps = append(r.maxSteps, e.maxSteps)
		r.systems = append(r.systems, e.w.Name)
	}
	if t == nil {
		specs := make([]runner.EpisodeSpec, len(grp))
		for i, e := range grp {
			specs[i] = runner.EpisodeSpec{Workload: e.w, Difficulty: world.Hard, Agents: e.agents, Seed: e.seed}
		}
		fr, err := runner.RunFleet(context.Background(), runner.FleetGroup{Specs: specs, Serve: c.cfg})
		if err != nil {
			return r, err
		}
		r.episodes, r.traces, r.serving = fr.Episodes, fr.Traces, fr.Serving
		return r, nil
	}
	// runner.RunFleet overwrites Options.Backend with its own fleet
	// clients, so the traced op builds the same fleet itself, wraps each
	// client and detaches it with Finish, exactly as RunFleet does.
	fleet := serve.NewShardedFleet(c.cfg, len(grp), 1)
	sink := &countingSink{}
	fleet.SetSink(sink)
	r.episodes = make([]metrics.Episode, len(grp))
	r.traces = make([]*trace.Trace, len(grp))
	var wg sync.WaitGroup
	for i := range grp {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := fleet.Client(i)
			defer client.Finish()
			rec := t.episode(i)
			out := grp[i].run(multiagent.Options{Backend: client}, rec)
			rec.finish()
			r.episodes[i], r.traces[i] = out.Episode, out.Trace
		}(i)
	}
	wg.Wait()
	r.serving = fleet.Stats()
	r.obsEvents = sink.n.Load()
	return r, nil
}

// teamCycle: each op is one large-team episode, alternating systems.
type teamCycle struct{ eps []episode }

func setupTeam(seed uint64) (cycle, error) {
	c := &teamCycle{}
	for i := 0; i < 2*teamEpisodes; i++ {
		name := "CoELA"
		if i%2 == 1 {
			name = "MindAgent"
		}
		e, err := newEpisode(name, teamSize, runner.EpisodeSeed(seed, i))
		if err != nil {
			return nil, err
		}
		c.eps = append(c.eps, e)
	}
	return c, nil
}

func (c *teamCycle) len() int { return len(c.eps) }

func (c *teamCycle) run(k int, t *tracer) (opResult, error) {
	e := c.eps[k]
	var rec *recorder
	if t != nil {
		rec = t.episode(0)
	}
	out := e.run(multiagent.Options{}, rec)
	if rec != nil {
		rec.finish()
	}
	return opResult{
		episodes: []metrics.Episode{out.Episode},
		traces:   []*trace.Trace{out.Trace},
		maxSteps: []int{e.maxSteps},
		systems:  []string{e.w.Name},
	}, nil
}

// replayCycle: each op replays one whole traffic trace.
type replayCycle struct {
	cfg    serve.Config
	traces [][]serve.Request
}

func (c *replayCycle) len() int { return len(c.traces) }

func (c *replayCycle) run(k int, t *tracer) (opResult, error) {
	reqs := c.traces[k]
	var rr serve.ReplayResult
	var events int64
	if t == nil {
		rr = serve.Replay(c.cfg, reqs)
	} else {
		sink := &countingSink{}
		rec := t.leaf()
		t0 := rec.begin()
		rr = serve.ReplayObserved(c.cfg, reqs, sink)
		rec.end(serveReplay, t0)
		rec.finish()
		events = sink.n.Load()
	}
	return opResult{
		replay:    &rr,
		offered:   len(reqs),
		serving:   rr.Stats,
		obsEvents: events,
	}, nil
}

// Bursty traffic: every burstPeriod, burstOn of arrivals. The burst schedule
// is fixed and only the Poisson arrivals inside it come from the seed.
// GenerateTraffic's own bursty kind draws exponential phase lengths, which
// moves a run's p99 latency and host cost by 30-50% from seed to seed.
const (
	burstTenants = 160
	burstOn      = 3 * time.Minute
	burstPeriod  = 10 * time.Minute
	horizon      = 60 * time.Minute
)

func setupBursty(seed uint64) (cycle, error) {
	c := &replayCycle{cfg: endpoint(8, 8, 500*time.Millisecond)}
	if _, err := serve.TryNew(c.cfg); err != nil {
		return nil, err
	}
	duty := float64(burstOn) / float64(burstPeriod)
	for k := 0; k < replayTraces; k++ {
		all := serve.GenerateTraffic(serve.Traffic{
			Tenants: burstTenants,
			Horizon: horizon,
			Rate:    (1.0 / 60) / duty, // boosted so the long-run mean is one request a minute
			Seed:    runner.EpisodeSeed(seed, k),
		})
		var reqs []serve.Request
		for _, r := range all {
			if r.Arrival%burstPeriod < burstOn {
				reqs = append(reqs, r)
			}
		}
		c.traces = append(c.traces, reqs)
	}
	return c, nil
}

// Resilient deployment: the fault, deadline and client-policy settings that
// route serve.Replay through its resilient event loop.
const (
	resilientTenants  = 192
	resilientFaults   = "mtbf=5m,mttr=30s,straggle=3m,for=20s,slow=4,seed=1"
	resilientDeadline = 30 * time.Second
)

func setupResilient(seed uint64) (cycle, error) {
	cfg := endpoint(8, 8, 500*time.Millisecond)
	var err error
	if cfg.Faults, err = serve.ParseFaults(resilientFaults); err != nil {
		return nil, err
	}
	if cfg.Retry, err = serve.ParseRetry("on"); err != nil {
		return nil, err
	}
	if cfg.Hedge, err = serve.ParseHedge("on"); err != nil {
		return nil, err
	}
	if cfg.Shed, err = serve.ParseShed("on"); err != nil {
		return nil, err
	}
	if _, err := serve.TryNew(cfg); err != nil {
		return nil, err
	}
	c := &replayCycle{cfg: cfg}
	for k := 0; k < replayTraces; k++ {
		reqs := serve.GenerateTraffic(serve.Traffic{
			Tenants: resilientTenants,
			Horizon: horizon,
			Seed:    runner.EpisodeSeed(seed, k),
		})
		for i := range reqs {
			reqs[i].Deadline = resilientDeadline
		}
		c.traces = append(c.traces, reqs)
	}
	return c, nil
}

// opResult is one op's simulated output.
type opResult struct {
	// Agent workloads.
	episodes []metrics.Episode
	traces   []*trace.Trace
	maxSteps []int
	systems  []string
	fleet    bool
	// Replay workloads.
	replay  *serve.ReplayResult
	offered int
	// serving is the endpoint total: the fleet's, or the replay's.
	serving   metrics.Serving
	obsEvents int64 // flight-recorder events (traced ops only)
}

// check verifies the op's output invariants.
func (r *opResult) check() error {
	if r.replay != nil {
		return checkReplay(r.replay, r.offered)
	}
	if len(r.episodes) != len(r.maxSteps) {
		return fmt.Errorf("%d episodes for %d specs", len(r.episodes), len(r.maxSteps))
	}
	sum := 0
	for i, e := range r.episodes {
		if e.Steps > r.maxSteps[i] {
			return fmt.Errorf("episode %d ran %d steps, cap %d", i, e.Steps, r.maxSteps[i])
		}
		if r.traces[i] == nil {
			return fmt.Errorf("episode %d has no trace", i)
		}
		sum += e.Serving.Requests
	}
	if r.fleet && sum != r.serving.Requests {
		return fmt.Errorf("episode serving requests sum to %d, endpoint served %d", sum, r.serving.Requests)
	}
	return nil
}

func checkReplay(rr *serve.ReplayResult, offered int) error {
	if len(rr.Completions) != offered {
		return fmt.Errorf("%d completions for %d requests", len(rr.Completions), offered)
	}
	var served, shed, timedOut int
	for i, c := range rr.Completions {
		if c.Done < c.Arrival {
			return fmt.Errorf("request %d done at %v before arrival %v", i, c.Done, c.Arrival)
		}
		switch c.Outcome {
		case serve.OutcomeServed:
			served++
			// A retry or hedge attempt enters admission after the request
			// arrived, and QueueWait is the winning attempt's own wait.
			first := c.Retries == 0 && !c.Hedged
			if wait := c.Start - c.Arrival; (first && c.QueueWait != wait) || c.QueueWait > wait {
				return fmt.Errorf("request %d queue wait %v, start-arrival %v", i, c.QueueWait, wait)
			}
		case serve.OutcomeShed:
			shed++
		case serve.OutcomeTimedOut:
			timedOut++
		default:
			return fmt.Errorf("request %d outcome %q", i, c.Outcome)
		}
	}
	if shed != rr.Stats.ShedRequests || timedOut != rr.Stats.TimedOut {
		return fmt.Errorf("outcomes shed %d timed-out %d, stats %d %d", shed, timedOut, rr.Stats.ShedRequests, rr.Stats.TimedOut)
	}
	if served+rr.Stats.ShedRequests+rr.Stats.TimedOut != offered {
		return fmt.Errorf("served %d + shed %d + timed out %d != offered %d", served, rr.Stats.ShedRequests, rr.Stats.TimedOut, offered)
	}
	return nil
}

// summary is what the metrics read from one checked op. The bulky outputs,
// traces and completions, are dropped, so that results kept for the
// simulated metrics do not inflate the measured heap.
type summary struct {
	replay   bool
	episodes []metrics.Episode
	systems  []string
	// latencies: every LLM call of the episodes, or every served request of
	// a replay (Done - Arrival).
	latencies []time.Duration
	requests  int // LLM calls, or offered requests of a replay
	serving   metrics.Serving
	makespan  time.Duration
	batches   int
}

func (r *opResult) summarize() summary {
	s := summary{episodes: r.episodes, systems: r.systems, serving: r.serving}
	if rr := r.replay; rr != nil {
		s.replay, s.requests = true, r.offered
		s.makespan, s.batches = rr.Makespan, rr.Batches
		for _, c := range rr.Completions {
			if c.Outcome == serve.OutcomeServed {
				s.latencies = append(s.latencies, c.Done-c.Arrival)
			}
		}
		return s
	}
	for _, tr := range r.traces {
		for _, ev := range tr.Events {
			if ev.LLMCall {
				s.latencies = append(s.latencies, ev.Latency)
			}
		}
	}
	for _, e := range r.episodes {
		s.requests += e.LLMCalls
	}
	return s
}

// episodeCount is the op's episodes; a replay counts as one.
func (s *summary) episodeCount() int {
	if s.replay {
		return 1
	}
	return len(s.episodes)
}
