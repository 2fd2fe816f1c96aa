package main

import (
	"fmt"
	"testing"
	"time"

	"embench/internal/core"
	"embench/internal/llm"
	"embench/internal/rng"
	"embench/internal/serve"
	"embench/internal/systems"
	"embench/internal/world"
)

// A traced op must produce byte-identical simulated output to the untraced
// op, and the layers the workload bypasses must record no spans.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c, err := w.setup(3)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runOp(c, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			tr.beginOp(0)
			traced, err := runOp(c, 0, tr)
			tr.endOp()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*opResult{&plain, &traced} {
				if err := r.check(); err != nil {
					t.Fatal(err)
				}
			}
			same := func(what string, a, b any) {
				if x, y := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b); x != y {
					t.Errorf("%s differs between untraced and traced runs", what)
				}
			}
			same("episode metrics", plain.episodes, traced.episodes)
			same("serving stats", plain.serving, traced.serving)
			if plain.replay != nil {
				same("completions", plain.replay.Completions, traced.replay.Completions)
				same("replay result", *plain.replay, *traced.replay)
			}
			if digest(&plain) != digest(&traced) {
				t.Error("digests differ")
			}

			envCalls := tr.calls[envObserve] + tr.calls[envBelief] + tr.calls[envPropose] + tr.calls[envExecute] + tr.calls[envTick]
			replay := plain.replay != nil
			if replay != (envCalls == 0) {
				t.Errorf("env spans: %d, replay workload: %v", envCalls, replay)
			}
			if want := w.name == "fleet-coela"; want != (tr.calls[serveCall] > 0) {
				t.Errorf("serve.call spans: %d", tr.calls[serveCall])
			}
			if replay && tr.calls[serveReplay] != 1 {
				t.Errorf("serve.replay spans: %d, want 1", tr.calls[serveReplay])
			}
			if replay && traced.obsEvents == 0 {
				t.Error("counting sink saw no flight-recorder events")
			}
		})
	}
}

// The domain wrapper has exactly the optional interfaces its domain has.
func TestWrapDomainForwards(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range systems.Names() {
		w, _ := systems.Get(name)
		d := w.NewDomain(w.DefaultAgents, world.Easy, rng.New(1))
		wd := wrapDomain(d, newTracer().episode(0))
		has := func(x core.Domain) [3]bool {
			_, a := x.(core.CentralDomain)
			_, b := x.(core.Claimer)
			_, c := x.(core.Corrector)
			return [3]bool{a, b, c}
		}
		if has(d) != has(wd) {
			t.Errorf("%s: domain has %v, wrapper %v", name, has(d), has(wd))
		}
		seen[fmt.Sprint(has(d))] = true
	}
	if len(seen) < 2 {
		t.Errorf("suite covers only interface sets %v", seen)
	}
}

type plainBackend struct{}

func (plainBackend) Serve(llm.Call) llm.Served { return llm.Served{Latency: time.Second} }

// The backend wrapper forwards llm.BatchBackend and ServingStats exactly
// when its backend has them, and times every call.
func TestWrapBackendForwards(t *testing.T) {
	ep := serve.New(endpoint(2, 4, 0))
	rec := newTracer().episode(0)
	wb := wrapBackend(ep, rec)
	bb, batches := wb.(llm.BatchBackend)
	_, stats := wb.(servingStats)
	if !batches || !stats {
		t.Fatalf("endpoint wrapper forwards batch %v, stats %v", batches, stats)
	}
	call := llm.Call{Agent: "a", PromptTokens: 100, OutTokens: 10}
	wb.Serve(call)
	bb.ServeBatch([]llm.Call{call, call})
	if len(rec.spans) != 2 || rec.spans[0].name != serveCall {
		t.Errorf("recorded %d spans", len(rec.spans))
	}
	if got := wb.(servingStats).ServingStats().Requests; got != 3 {
		t.Errorf("forwarded stats count %d requests, want 3", got)
	}
	pw := wrapBackend(plainBackend{}, rec)
	_, batches = pw.(llm.BatchBackend)
	_, stats = pw.(servingStats)
	if batches || stats {
		t.Errorf("plain backend wrapper forwards batch %v, stats %v", batches, stats)
	}
}

// Two runs of one seed print the same digest; another seed another one.
func TestRunDigestRepeats(t *testing.T) {
	w, _ := lookup("replay-resilient")
	digests := map[uint64]uint64{}
	for _, seed := range []uint64{5, 5, 6} {
		res, err := bench(w, seed, 0.01, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("seed %d: %d failed ops: %v", seed, res.failed, res.firstErr)
		}
		if d, ok := digests[seed]; ok && d != res.digest {
			t.Errorf("seed %d digests %016x and %016x", seed, d, res.digest)
		}
		digests[seed] = res.digest
	}
	if digests[5] == digests[6] {
		t.Error("seeds 5 and 6 give the same digest")
	}
}

//go:noinline
func spin(until time.Time) (n int) {
	for time.Now().Before(until) {
		n++
	}
	return n
}

func TestCPUAttribution(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip(err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	a, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if a.total == 0 {
		t.Fatal("no CPU samples")
	}
	if f := a.frac("bench", a.layers); f < 0.5 {
		t.Errorf("spin loop got %.2f of CPU, want most of it", f)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "embench/internal/modules/memory.(*Store).Retrieve", "embench/internal/core.(*Agent).Step"}, "memory"},
		{[]string{"reflect.DeepEqual", "embench/internal/multiagent.hasEquivalent"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"math/rand.(*rngSource).Seed", "embench/internal/rng.(*Source).NewStream"}, "rng"},
		{[]string{"embench/internal/env/kitchen.(*Game).BuildBelief.func1"}, "env"},
		{[]string{"main.(*tracedDomain).Observe", "embench/internal/core.(*Agent).Sense"}, "bench"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestTail(t *testing.T) {
	vals := make([]float64, 250)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, p, beyond := tail(vals, 99); p != 95 || beyond < 10 {
		t.Errorf("250 samples: p%g with %d beyond, want p95", p, beyond)
	}
	if _, p, _ := tail(vals[:40], 95); p != 75 {
		t.Errorf("40 samples: p%g, want p75", p)
	}
}
