package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"embench/internal/core"
	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/serve/obs"
)

// layer names a decorated seam. Each decorated call is one leaf span.
type layer uint8

const (
	envObserve layer = iota
	envBelief
	envPropose
	envExecute
	envTick
	serveCall
	serveReplay
	nLayers
	// Interior spans.
	spanOp
	spanEpisode
)

var layerNames = map[layer]string{
	envObserve:  "env.observe",
	envBelief:   "env.belief",
	envPropose:  "env.propose",
	envExecute:  "env.execute",
	envTick:     "env.tick",
	serveCall:   "serve.call",
	serveReplay: "serve.replay",
	spanOp:      "op",
	spanEpisode: "episode",
}

// span is one timed interval; times are nanoseconds since the tracer began.
type span struct {
	name       layer
	id, parent int32
	op, ep     int32 // index among the traced ops; episode within the op (-1: none)
	start, end int64
}

// Kept spans and latencies are bounded, so that the traced run's extra live
// heap stays small next to the workloads' own few MB: live heap sets how
// often GC runs, and GC is 10-20% of these workloads' CPU.
const (
	maxSpans    = 10_000 // spans kept; counts and totals cover every span
	maxServeLat = 20_000 // serve.call durations kept for percentiles
)

// tracer keeps the traced ops' spans in memory and sums per-layer time.
// The span tree is op → episode → env.* / serve.call, and op → serve.replay
// for replays. Leaf spans never nest, and one episode's leaves run on one
// goroutine, so an episode's self time is its duration minus its leaves'.
type tracer struct {
	base time.Time

	// Set by the benchmark loop before each op, read by the op's goroutines.
	op     int32
	opSpan int32
	opT0   int64

	mu       sync.Mutex
	spans    []span
	dropped  int64
	nextID   int32
	layerNs  [nLayers]int64
	calls    [nLayers]int64
	agentNs  int64   // episode self time
	serveLat []int64 // serve.call durations
}

func newTracer() *tracer {
	return &tracer{
		base:     time.Now(),
		spans:    make([]span, 0, maxSpans),
		serveLat: make([]int64, 0, maxServeLat),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// beginOp opens op i's span.
func (t *tracer) beginOp(i int) {
	t.mu.Lock()
	t.nextID++
	t.op, t.opSpan = int32(i), t.nextID
	t.mu.Unlock()
	t.opT0 = t.now()
}

// endOp closes the current op's span.
func (t *tracer) endOp() {
	s := span{name: spanOp, id: t.opSpan, op: t.op, ep: -1, start: t.opT0, end: t.now()}
	t.mu.Lock()
	t.keep(s)
	t.mu.Unlock()
}

// keep stores a span while room remains; t.mu is held.
func (t *tracer) keep(s span) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// episode opens an episode span under the current op.
func (t *tracer) episode(ep int) *recorder {
	t.mu.Lock()
	room := len(t.spans) < cap(t.spans)
	t.mu.Unlock()
	return &recorder{t: t, ep: int32(ep), episode: true, start: t.now(), keep: room}
}

// leaf returns a recorder whose spans hang directly under the current op.
func (t *tracer) leaf() *recorder { return &recorder{t: t, ep: -1, keep: true} }

// recorder sums one goroutine's leaf spans without locking, keeps them
// while the tracer has room, and hands them over in finish.
type recorder struct {
	t       *tracer
	ep      int32
	episode bool
	start   int64
	keep    bool
	leafNs  int64
	ns      [nLayers]int64
	calls   [nLayers]int64
	lat     []int64 // serve.call durations
	spans   []span
}

func (r *recorder) begin() int64 { return r.t.now() }

func (r *recorder) end(l layer, t0 int64) {
	t1 := r.t.now()
	r.leafNs += t1 - t0
	r.ns[l] += t1 - t0
	r.calls[l]++
	if l == serveCall {
		r.lat = append(r.lat, t1-t0)
	}
	if r.keep {
		r.spans = append(r.spans, span{name: l, ep: r.ep, start: t0, end: t1})
	}
}

// finish closes the episode span, if any, and merges into the tracer.
func (r *recorder) finish() {
	t := r.t
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for l := range r.ns {
		t.layerNs[l] += r.ns[l]
		t.calls[l] += r.calls[l]
	}
	if room := cap(t.serveLat) - len(t.serveLat); len(r.lat) > room {
		r.lat = r.lat[:room]
	}
	t.serveLat = append(t.serveLat, r.lat...)
	parent := t.opSpan
	if r.episode {
		t.nextID++
		parent = t.nextID
		t.agentNs += end - r.start - r.leafNs
		t.keep(span{name: spanEpisode, id: parent, parent: t.opSpan, op: t.op, ep: r.ep, start: r.start, end: end})
	}
	if !r.keep {
		for _, n := range r.calls {
			t.dropped += n
		}
		return
	}
	for _, s := range r.spans {
		t.nextID++
		s.id, s.parent, s.op = t.nextID, parent, t.op
		t.keep(s)
	}
}

// write stores the kept spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].start < t.spans[j].start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Name    string `json:"name"`
			ID      int32  `json:"id"`
			Parent  int32  `json:"parent"`
			Op      int32  `json:"op"`
			Episode int32  `json:"episode"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{layerNames[s.name], s.id, s.parent, s.op, s.ep, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedDomain times the env layer's calls through core.Domain.
type tracedDomain struct {
	core.Domain
	rec *recorder
}

func (d *tracedDomain) Observe(agent int) core.Observation {
	t0 := d.rec.begin()
	o := d.Domain.Observe(agent)
	d.rec.end(envObserve, t0)
	return o
}

func (d *tracedDomain) BuildBelief(agent int, recs []memory.Record) core.Belief {
	t0 := d.rec.begin()
	b := d.Domain.BuildBelief(agent, recs)
	d.rec.end(envBelief, t0)
	return b
}

func (d *tracedDomain) Propose(agent int, b core.Belief) core.Proposal {
	t0 := d.rec.begin()
	p := d.Domain.Propose(agent, b)
	d.rec.end(envPropose, t0)
	return p
}

func (d *tracedDomain) Execute(agent int, g core.Subgoal) execution.Result {
	t0 := d.rec.begin()
	r := d.Domain.Execute(agent, g)
	d.rec.end(envExecute, t0)
	return r
}

func (d *tracedDomain) Tick() {
	t0 := d.rec.begin()
	d.Domain.Tick()
	d.rec.end(envTick, t0)
}

// The optional domain interfaces the runtime type-asserts for. A wrapper
// must have exactly the ones its domain has, or the paradigm runners take
// another path.
type centralFwd struct{ d *tracedDomain }

func (f centralFwd) ProposeJoint(b core.Belief) core.Proposal {
	t0 := f.d.rec.begin()
	p := f.d.Domain.(core.CentralDomain).ProposeJoint(b)
	f.d.rec.end(envPropose, t0)
	return p
}

type claimFwd struct{ c core.Claimer }

func (f claimFwd) ClaimRecord(agent int, g core.Subgoal) (memory.Record, bool) {
	return f.c.ClaimRecord(agent, g)
}

type correctFwd struct{ c core.Corrector }

func (f correctFwd) CorrectionRecords(agent int, g core.Subgoal, res execution.Result) []memory.Record {
	return f.c.CorrectionRecords(agent, g, res)
}

// wrapDomain decorates d, forwarding core.CentralDomain, core.Claimer and
// core.Corrector when d implements them.
func wrapDomain(d core.Domain, rec *recorder) core.Domain {
	td := &tracedDomain{Domain: d, rec: rec}
	_, central := d.(core.CentralDomain)
	cl, claims := d.(core.Claimer)
	co, corrects := d.(core.Corrector)
	c, l, r := centralFwd{td}, claimFwd{cl}, correctFwd{co}
	switch {
	case central && claims && corrects:
		return struct {
			*tracedDomain
			centralFwd
			claimFwd
			correctFwd
		}{td, c, l, r}
	case central && claims:
		return struct {
			*tracedDomain
			centralFwd
			claimFwd
		}{td, c, l}
	case central && corrects:
		return struct {
			*tracedDomain
			centralFwd
			correctFwd
		}{td, c, r}
	case central:
		return struct {
			*tracedDomain
			centralFwd
		}{td, c}
	case claims && corrects:
		return struct {
			*tracedDomain
			claimFwd
			correctFwd
		}{td, l, r}
	case claims:
		return struct {
			*tracedDomain
			claimFwd
		}{td, l}
	case corrects:
		return struct {
			*tracedDomain
			correctFwd
		}{td, r}
	}
	return td
}

// servingStats is the seam episodes read their serving statistics through.
type servingStats interface {
	ServingStats() metrics.Serving
}

// tracedBackend times the serve layer's closed-loop calls through
// llm.Backend. In a fleet a call includes the merge wait.
type tracedBackend struct {
	llm.Backend
	rec *recorder
}

func (b *tracedBackend) Serve(c llm.Call) llm.Served {
	t0 := b.rec.begin()
	s := b.Backend.Serve(c)
	b.rec.end(serveCall, t0)
	return s
}

type batchFwd struct{ b *tracedBackend }

func (f batchFwd) ServeBatch(calls []llm.Call) []llm.Served {
	t0 := f.b.rec.begin()
	s := f.b.Backend.(llm.BatchBackend).ServeBatch(calls)
	f.b.rec.end(serveCall, t0)
	return s
}

type statsFwd struct{ s servingStats }

func (f statsFwd) ServingStats() metrics.Serving { return f.s.ServingStats() }

// wrapBackend decorates b, forwarding llm.BatchBackend and ServingStats
// when b implements them.
func wrapBackend(b llm.Backend, rec *recorder) llm.Backend {
	tb := &tracedBackend{Backend: b, rec: rec}
	_, batches := b.(llm.BatchBackend)
	ss, stats := b.(servingStats)
	switch {
	case batches && stats:
		return struct {
			*tracedBackend
			batchFwd
			statsFwd
		}{tb, batchFwd{tb}, statsFwd{ss}}
	case batches:
		return struct {
			*tracedBackend
			batchFwd
		}{tb, batchFwd{tb}}
	case stats:
		return struct {
			*tracedBackend
			statsFwd
		}{tb, statsFwd{ss}}
	}
	return tb
}

// countingSink counts flight-recorder events.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Event(obs.Event) { s.n.Add(1) }
