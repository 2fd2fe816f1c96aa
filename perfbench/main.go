// Command perfbench is embench's performance benchmark. It drives the
// program from outside, through runner.RunFleet, systems.Workload.Run,
// serve.GenerateTraffic and serve.Replay, checks every op's output, and
// prints the end-to-end metrics of a timed run (-trace 0) or the per-layer
// metrics of a traced run (-trace 1). See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet-coela --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"embench/internal/trace"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	traced := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	spans := fs.String("spans", "", "traced run: write spans as JSON lines to this file (default .bench_build/perfbench/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if *spans == "" {
		*spans = ".bench_build/perfbench/spans-" + w.name + ".jsonl"
	}
	res, err := bench(w, *seed, *seconds, *traced == 1, *spans)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
	// extra marks a metric printed in the table but left out of the JSON
	// line, which carries exactly the metrics BENCHMARK.json lists.
	extra bool
}

type result struct {
	env       env
	digest    uint64
	attempted int
	failed    int
	firstErr  error
	metrics   []metric
}

func (r *result) print(out io.Writer) {
	stampJSON, _ := json.Marshal(r.env)
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%d attempted=%d failed=%d\n", r.env.Workload, r.env.Seed, r.env.Trace, r.attempted, r.failed)
	fmt.Fprintf(out, "env %s\n", stampJSON)
	fmt.Fprintf(out, "digest %016x\n", r.digest)
	if r.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", r.firstErr)
	}
	last := map[string]any{}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-32s %16.6f %-8s %s\n", m.name, m.value, m.unit, m.note)
		if !m.extra {
			last[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   last,
	})
	fmt.Fprintf(out, "%s\n", line)
}

// phase is one measured stretch of ops.
type phase struct {
	ops      int
	failed   int
	firstErr error
	opMs     []float64   // host CPU time per op
	byOp     [][]float64 // the same, by position in the cycle
	wallMs   []float64   // wall-clock time per op
	wallByOp [][]float64
	requests int
	allocs   uint64
	bytes    uint64
	live     []float64 // live heap after the latest GC, sampled after each op
	events   int64
	rt0, rt1 runtimeStats
	first    []summary // the cycle's first pass
}

// runOp runs one op, turning a panic into an error.
func runOp(c cycle, k int, t *tracer) (r opResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("op %d panicked: %v\n%s", k, p, debug.Stack())
		}
	}()
	return c.run(k, t)
}

// runPhase cycles ops for at least dur and at least one full pass. Every
// mode runs each op in turn, untraced for a nil tracer; the order of modes
// flips on every other pass, so that drift in host speed hits all modes
// alike. It returns one phase per mode.
func runPhase(c cycle, dur time.Duration, modes []*tracer, ref map[int]uint64) []*phase {
	n := c.len()
	ps := make([]*phase, len(modes))
	for m := range ps {
		ps[m] = &phase{first: make([]summary, n), byOp: make([][]float64, n), wallByOp: make([][]float64, n)}
	}
	before, after := newRuntimeSamples(), newRuntimeSamples()
	rt0 := readRuntime(before)
	start := time.Now()
	for i := 0; i < n || time.Since(start) < dur; i++ {
		for j := range modes {
			m := j
			if (i/n)%2 == 1 {
				m = len(modes) - 1 - j
			}
			ps[m].step(c, i%n, i < n, modes[m], ref, before, after)
		}
	}
	rt1 := readRuntime(after)
	for _, p := range ps {
		p.rt0, p.rt1 = rt0, rt1
	}
	return ps
}

// step runs op k once and records it. Its output is checked and its digest
// compared with the digest of the same op earlier in the run.
func (p *phase) step(c cycle, k int, firstPass bool, t *tracer, ref map[int]uint64, before, after []metrics.Sample) {
	if t != nil {
		t.beginOp(p.ops)
	}
	rt0 := readRuntime(before)
	t0, c0 := time.Now(), cpuNow()
	r, err := runOp(c, k, t)
	d, cpu := time.Since(t0), cpuNow()-c0
	rt1 := readRuntime(after)
	if t != nil {
		t.endOp()
	}
	p.ops++
	ms := cpu * 1000
	p.opMs = append(p.opMs, ms)
	p.byOp[k] = append(p.byOp[k], ms)
	wallMs := float64(d) / float64(time.Millisecond)
	p.wallMs = append(p.wallMs, wallMs)
	p.wallByOp[k] = append(p.wallByOp[k], wallMs)
	p.allocs += rt1.allocs - rt0.allocs
	p.bytes += rt1.bytes - rt0.bytes
	p.live = append(p.live, float64(rt1.live))
	if err == nil {
		err = r.check()
	}
	if err == nil {
		dg := digest(&r)
		if want, ok := ref[k]; ok && want != dg {
			err = fmt.Errorf("op %d output digest %016x differs from %016x earlier in the run", k, dg, want)
		}
		ref[k] = dg
	}
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	sum := r.summarize()
	p.requests += sum.requests
	p.events += r.obsEvents
	if firstPass {
		p.first[k] = sum
	}
}

// rates reports episodes and simulated requests per second of the given op
// times over one pass of the cycle, each op timed at its median over the
// phase, so that a stall during a few ops moves the rate little.
func (p *phase) rates(byOp [][]float64) (episodes, requests float64) {
	var secs float64
	var eps, reqs int
	for k, ms := range byOp {
		if len(ms) == 0 {
			continue
		}
		secs += median(ms) / 1000
		eps += p.first[k].episodeCount()
		reqs += p.first[k].requests
	}
	return frac(float64(eps), secs), frac(float64(reqs), secs)
}

// bench sets up and runs the measured phase: untraced ops, or, when traced,
// untraced and traced ops interleaved.
func bench(w workload, seed uint64, seconds float64, traced bool, spansPath string) (*result, error) {
	var c cycle
	var setups []float64
	ref := map[int]uint64{}
	for i := 0; i < setupReps; i++ {
		// The first set-up counts the process's CPU time since it started.
		var t0 float64
		if i > 0 {
			t0 = cpuNow()
		}
		var err error
		if c, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		// Warm-up ops fill caches and heap, and record the digests later
		// runs of the same ops must reproduce.
		for k := 0; k < w.warmOps && k < c.len(); k++ {
			warm, err := runOp(c, k, nil)
			if err == nil {
				err = warm.check()
			}
			if err == nil {
				dg := digest(&warm)
				if want, ok := ref[k]; ok && want != dg {
					err = fmt.Errorf("output digest %016x differs from %016x of an earlier set-up", dg, want)
				}
				ref[k] = dg
			}
			if err != nil {
				return nil, fmt.Errorf("%s warm-up op %d: %w", w.name, k, err)
			}
		}
		setups = append(setups, cpuNow()-t0)
	}

	// A traced run interleaves untraced and traced ops; its CPU profile and
	// allocation snapshots cover both.
	modes := []*tracer{nil}
	var (
		t       *tracer
		prof    *cpuProfile
		allocs0 allocSnapshot
		err     error
	)
	if traced {
		t = newTracer()
		modes = append(modes, t)
		allocs0 = takeAllocs(false)
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	ps := runPhase(c, time.Duration(seconds*float64(time.Second)), modes, ref)
	p := ps[0]
	res := &result{env: stamp(w.name, seed, seconds, traced), digest: runDigest(c, ref)}
	for _, q := range ps {
		res.attempted += q.ops
		res.failed += q.failed
		if res.firstErr == nil {
			res.firstErr = q.firstErr
		}
	}
	simE2E, simLayers := simulated(p.first)
	if !traced {
		res.metrics = append(endToEnd(w, p, median(setups)), simE2E...)
		return res, nil
	}
	cpu, err := prof.stop()
	if err != nil {
		return nil, err
	}
	alloc := allocAttribution(allocs0, takeAllocs(true))
	res.metrics = append(layerMetrics(t, p, ps[1], cpu, alloc), simLayers...)
	if err := t.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// runDigest combines the per-op digests of one cycle.
func runDigest(c cycle, ref map[int]uint64) uint64 {
	var h uint64 = 14695981039346656037
	for k := 0; k < c.len(); k++ {
		h = (h ^ ref[k]) * 1099511628211
	}
	return h
}

func endToEnd(w workload, p *phase, setup float64) []metric {
	sorted, wall, live := sortedCopy(p.opMs), sortedCopy(p.wallMs), sortedCopy(p.live)
	tailMs, pct, beyond := tail(sorted, w.tailPct)
	ops := float64(p.ops)
	eps, reqs := p.rates(p.byOp)
	wallEps, _ := p.rates(p.wallByOp)
	return []metric{
		{name: "setup_s", value: setup, unit: "s", note: fmt.Sprintf("CPU time, median of %d set-ups of %d warm-up ops; the first from process start", setupReps, w.warmOps)},
		{name: "episodes_per_s", value: eps, unit: "1/s", note: "episodes (replays on replay-*) per CPU second, ops at their median time"},
		{name: "requests_per_s", value: reqs, unit: "1/s", note: "simulated LLM requests per CPU second, ops at their median time"},
		{name: "op_ms_p50", value: quantile(sorted, 0.5), unit: "ms", note: fmt.Sprintf("CPU time, %d ops", p.ops)},
		{name: "op_ms_tail", value: tailMs, unit: "ms", note: fmt.Sprintf("CPU time, p%g of %d ops, %d beyond", pct, p.ops, beyond)},
		{name: "wall_episodes_per_s", value: wallEps, unit: "1/s", note: "episodes_per_s in wall-clock time", extra: true},
		{name: "wall_op_ms_p50", value: quantile(wall, 0.5), unit: "ms", note: "op_ms_p50 in wall-clock time", extra: true},
		{name: "allocs_per_op", value: frac(float64(p.allocs), ops), unit: "count"},
		{name: "alloc_mb_per_op", value: frac(float64(p.bytes), ops) / 1e6, unit: "MB"},
		{name: "peak_heap_mb", value: quantile(live, 0.9) / 1e6, unit: "MB", note: "p90 of the live heap after the latest GC, sampled after each op"},
		{name: "failed_frac", value: frac(float64(p.failed), ops), unit: "ratio", note: "carried as ok_frac", extra: true},
		{name: "ok_frac", value: frac(ops-float64(p.failed), ops), unit: "ratio", note: "1 - failed_frac"},
	}
}

// simulated derives the virtual-time metrics from the cycle's first pass.
// They are pure functions of the seed.
func simulated(first []summary) (e2e, layers []metric) {
	var (
		lat                 []float64
		ok, of, within, req int
		eps, calls, ptok    int
		steps, useful, msgs int
		batches, offered    int
		module              = map[trace.Module]time.Duration{}
		tasks               = map[string][]float64{} // makespans by system
		sv                  = first[0].serving
	)
	for i, s := range first {
		if i > 0 {
			sv = sv.Merge(s.serving)
		}
		req += s.requests
		for _, l := range s.latencies {
			lat = append(lat, l.Seconds())
			if l <= SLO {
				within++
			}
		}
		if s.replay {
			tasks["replay"] = append(tasks["replay"], s.makespan.Seconds())
			batches += s.batches
			offered += s.requests
			ok += len(s.latencies)
			of += s.requests
			continue
		}
		for j, e := range s.episodes {
			eps++
			of++
			if e.Success {
				ok++
			}
			tasks[s.systems[j]] = append(tasks[s.systems[j]], e.SimDuration.Seconds())
			calls += e.LLMCalls
			ptok += e.PromptTokens
			steps += e.Steps
			useful += e.Messages.Useful
			msgs += e.Messages.Generated
			for m, d := range e.Breakdown {
				module[m] += d
			}
		}
	}
	// A mixed workload's makespans are bimodal, and their pooled median
	// jumps between the modes; the per-system medians are averaged instead.
	var systems []string
	for name := range tasks {
		systems = append(systems, name)
	}
	sort.Strings(systems) // a fixed summation order keeps the value exact across runs
	var taskP50 float64
	for _, name := range systems {
		taskP50 += median(tasks[name]) / float64(len(tasks))
	}
	sort.Float64s(lat)
	e2e = []metric{
		{name: "sim_task_s_p50", value: taskP50, unit: "s", note: "median episode makespan, mean over systems (replay makespan on replay-*)"},
		{name: "sim_success_rate", value: frac(float64(ok), float64(of)), unit: "ratio", note: "successful episodes (served requests on replay-*)"},
		{name: "sim_latency_p99_s", value: quantile(lat, 0.99), unit: "s", note: fmt.Sprintf("exact, over %d served requests", len(lat))},
		{name: "sim_slo_attainment", value: frac(float64(within), float64(req)), unit: "ratio", note: fmt.Sprintf("within %v, over %d requests", SLO, req)},
	}
	n := float64(len(first))
	for _, m := range trace.Modules {
		layers = append(layers, metric{name: "modules.sim_" + string(m) + "_s", value: frac(module[m].Seconds(), float64(eps)), unit: "s"})
	}
	layers = append(layers,
		metric{name: "llm.calls_per_episode", value: frac(float64(calls), float64(eps)), unit: "count"},
		metric{name: "prompt.tokens_per_call", value: frac(float64(ptok), float64(calls)), unit: "count"},
		metric{name: "comms.useful_frac", value: frac(float64(useful), float64(msgs)), unit: "ratio"},
		metric{name: "env.steps_per_episode", value: frac(float64(steps), float64(eps)), unit: "count"},
		metric{name: "serve.batches", value: float64(batches) / n, unit: "count/op", note: "replay batches launched"},
		metric{name: "serve.sim_queue_wait_s_mean", value: sv.MeanQueueWait().Seconds(), unit: "s"},
		metric{name: "serve.sim_queue_wait_p99_s", value: sv.QueueWaitHist.Quantile(0.99).Seconds(), unit: "s", note: "histogram bucket"},
		metric{name: "serve.batch_occupancy", value: sv.BatchOccupancy(), unit: "seqs"},
		metric{name: "serve.cache_hit_frac", value: sv.CacheHitRate(), unit: "ratio"},
		metric{name: "serve.evicted_tokens", value: float64(sv.EvictedTokens) / n, unit: "count/op"},
		metric{name: "serve.max_replica_share", value: sv.MaxReplicaShare(), unit: "ratio"},
		metric{name: "serve.shed_frac", value: frac(float64(sv.ShedRequests), float64(offered)), unit: "ratio"},
		metric{name: "serve.retries", value: float64(sv.Retries) / n, unit: "count/op"},
		metric{name: "serve.hedge_win_frac", value: frac(float64(sv.HedgeWins), float64(sv.HedgesIssued)), unit: "ratio"},
		metric{name: "serve.timed_out", value: float64(sv.TimedOut) / n, unit: "count/op"},
		metric{name: "serve.failed_batches", value: float64(sv.FailedBatches) / n, unit: "count/op"},
	)
	return e2e, layers
}

// layerMetrics derives the traced run's host metrics from its untraced ops
// p and traced ops pt.
func layerMetrics(t *tracer, p, pt *phase, cpu, alloc *attribution) []metric {
	ops := float64(pt.ops)
	perOp := func(ns int64) float64 { return float64(ns) / 1e9 / ops }
	var out []metric
	for _, l := range []layer{envObserve, envBelief, envPropose, envExecute, envTick} {
		name := layerNames[l]
		out = append(out,
			metric{name: name + "_s", value: perOp(t.layerNs[l]), unit: "s/op"},
			metric{name: name + "_calls", value: float64(t.calls[l]) / ops, unit: "count/op"})
	}
	lat := make([]float64, len(t.serveLat))
	for i, ns := range t.serveLat {
		lat[i] = float64(ns) / 1e3
	}
	sort.Float64s(lat)
	cycles := pt.rt1.cycles - pt.rt0.cycles
	out = append(out,
		metric{name: "agent.self_s", value: perOp(t.agentNs), unit: "s/op", note: "episode time minus env and serve spans"},
		metric{name: "serve.calls", value: float64(t.calls[serveCall]) / ops, unit: "count/op"},
		metric{name: "serve.call_s", value: perOp(t.layerNs[serveCall]), unit: "s/op", note: "includes fleet merge wait"},
		metric{name: "serve.call_us_p50", value: quantile(lat, 0.5), unit: "us"},
		metric{name: "serve.call_us_p99", value: quantile(lat, 0.99), unit: "us"},
		metric{name: "serve.replay_s", value: perOp(t.layerNs[serveReplay]), unit: "s/op"},
		metric{name: "serve.ns_per_request", value: frac(float64(t.layerNs[serveReplay]), float64(pt.requests)), unit: "ns"},
		metric{name: "obs.events", value: float64(pt.events) / ops, unit: "count/op"},
		metric{name: "obs.events_per_request", value: frac(float64(pt.events), float64(pt.requests)), unit: "ratio"},
		metric{name: "runtime.gc_cpu_frac", value: frac(pt.rt1.gcCPU-pt.rt0.gcCPU, pt.rt1.totalCPU-pt.rt0.totalCPU), unit: "ratio", note: "untraced and traced ops"},
		metric{name: "runtime.gc_cycles_per_op", value: frac(float64(cycles), float64(p.ops+pt.ops)), unit: "count", note: "untraced and traced ops"},
	)
	for _, l := range profLayers {
		out = append(out, metric{name: "cpu." + l + "_frac", value: cpu.frac(l, cpu.layers), unit: "ratio"})
	}
	for _, h := range []string{"deepequal", "astar"} {
		out = append(out, metric{name: "cpu." + h + "_frac", value: cpu.frac(h, cpu.hot), unit: "ratio", note: "inclusive"})
	}
	// The benchmark's own allocations (spans, output checks) are left out,
	// so the alloc fractions split the program's allocations.
	alloc.total -= alloc.layers["bench"]
	for _, l := range profLayers {
		if l != "gc" && l != "bench" {
			out = append(out, metric{name: "alloc." + l + "_frac", value: alloc.frac(l, alloc.layers), unit: "ratio"})
		}
	}
	ue, ur := p.rates(p.byOp)
	te, tr := pt.rates(pt.byOp)
	out = append(out,
		metric{name: "trace.untraced_episodes_per_s", value: ue, unit: "1/s"},
		metric{name: "trace.traced_episodes_per_s", value: te, unit: "1/s"},
		metric{name: "trace.untraced_requests_per_s", value: ur, unit: "1/s"},
		metric{name: "trace.traced_requests_per_s", value: tr, unit: "1/s"},
		metric{name: "trace.overhead_frac", value: 1 - frac(tr, ur), unit: "ratio", note: "1 - traced/untraced requests_per_s"},
		metric{name: "trace.spans_kept", value: float64(len(t.spans)), unit: "count"},
		metric{name: "trace.spans_dropped", value: float64(t.dropped), unit: "count"},
	)
	return out
}
