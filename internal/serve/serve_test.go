package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"embench/internal/llm"
	"embench/internal/prompt"
)

// noJitter is a deterministic test profile: 1s overhead, 1000 tok/s
// prefill, 10 tok/s decode.
var noJitter = llm.Profile{
	Name: "test", Overhead: time.Second, PrefillRate: 1000, DecodeRate: 10,
	ContextWindow: 8192, Capability: 0.9,
}

func sharedPrompt(agent string, extra int) prompt.Prompt {
	return prompt.New(
		prompt.Section{Name: "system", Tokens: 200},
		prompt.Section{Name: "task", Tokens: 100},
		prompt.Section{Name: "mem-" + agent, Tokens: extra, Droppable: true},
	)
}

// trace builds n request streams of `steps` calls each, one call per
// period, staggered a little per agent.
func testTrace(n, steps int, period, stagger time.Duration) []Request {
	var reqs []Request
	for s := 0; s < steps; s++ {
		for a := 0; a < n; a++ {
			reqs = append(reqs, Request{
				Agent:     fmt.Sprintf("agent%d", a),
				Arrival:   time.Duration(s)*period + time.Duration(a)*stagger,
				Prompt:    sharedPrompt(fmt.Sprintf("a%d", a), 50+10*s),
				OutTokens: 50,
			})
		}
	}
	return reqs
}

func TestReplayDeterministic(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4, MaxWait: time.Second, CacheEntries: 64}
	reqs := testTrace(4, 5, 8*time.Second, 200*time.Millisecond)
	a, b := Replay(cfg, reqs), Replay(cfg, reqs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical replays diverged")
	}
}

func TestReplayQueueWaitGrowsWithStreams(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 1, MaxBatch: 1}
	var prev time.Duration
	for _, n := range []int{1, 2, 4, 8} {
		res := Replay(cfg, testTrace(n, 4, 8*time.Second, 200*time.Millisecond))
		wait := res.Stats.MeanQueueWait()
		if n > 1 && wait <= prev {
			t.Fatalf("queue wait should grow with streams: %d streams → %v (prev %v)", n, wait, prev)
		}
		prev = wait
	}
}

func TestReplayReplicasShrinkQueueWait(t *testing.T) {
	reqs := testTrace(8, 4, 8*time.Second, 200*time.Millisecond)
	var prev time.Duration
	for i, replicas := range []int{1, 2, 4} {
		cfg := Config{Profile: noJitter, Replicas: replicas, MaxBatch: 1}
		wait := Replay(cfg, reqs).Stats.MeanQueueWait()
		if i > 0 && wait >= prev {
			t.Fatalf("queue wait should shrink with replicas: %d → %v (prev %v)", replicas, wait, prev)
		}
		prev = wait
	}
}

func TestReplayBatchingShrinksQueueWaitAndRaisesOccupancy(t *testing.T) {
	reqs := testTrace(8, 4, 8*time.Second, 200*time.Millisecond)
	seq := Replay(Config{Profile: noJitter, Replicas: 1, MaxBatch: 1}, reqs)
	bat := Replay(Config{Profile: noJitter, Replicas: 1, MaxBatch: 4, MaxWait: time.Second}, reqs)
	if bat.Stats.MeanQueueWait() >= seq.Stats.MeanQueueWait() {
		t.Fatalf("batching should cut queue wait: %v vs %v",
			bat.Stats.MeanQueueWait(), seq.Stats.MeanQueueWait())
	}
	if occ := bat.Stats.BatchOccupancy(); occ <= 1.2 {
		t.Fatalf("batch occupancy = %.2f, want > 1.2", occ)
	}
	if seq.Stats.BatchOccupancy() != 1 {
		t.Fatalf("unbatched occupancy = %.2f, want exactly 1", seq.Stats.BatchOccupancy())
	}
	if bat.Makespan >= seq.Makespan {
		t.Fatalf("batching should shorten the makespan: %v vs %v", bat.Makespan, seq.Makespan)
	}
	if bat.Throughput() <= seq.Throughput() {
		t.Fatal("batching should raise throughput")
	}
}

func TestReplayPrefixCacheHits(t *testing.T) {
	reqs := testTrace(4, 4, 8*time.Second, 200*time.Millisecond)
	off := Replay(Config{Profile: noJitter, Replicas: 1, MaxBatch: 1}, reqs)
	if off.Stats.CacheHitRate() != 0 {
		t.Fatalf("cache disabled but hit rate = %v", off.Stats.CacheHitRate())
	}
	on := Replay(Config{Profile: noJitter, Replicas: 1, MaxBatch: 1, CacheEntries: 256}, reqs)
	// All requests share the 300-token system+task prefix; everything after
	// the first should hit it.
	if hr := on.Stats.CacheHitRate(); hr < 0.3 || hr >= 1 {
		t.Fatalf("cache hit rate = %.2f, want substantial but partial", hr)
	}
	if on.Stats.MeanQueueWait() > off.Stats.MeanQueueWait() {
		t.Fatal("cache hits should never increase queueing")
	}
}

func TestReplayPriorityClassesServeFirst(t *testing.T) {
	// Two requests arrive while the replica is busy; the high-priority
	// (lower value) one must start first despite arriving later.
	mk := func(agent string, at time.Duration, prio int) Request {
		return Request{Agent: agent, Arrival: at, Priority: prio,
			Prompt: sharedPrompt(agent, 10), OutTokens: 50}
	}
	reqs := []Request{
		mk("first", 0, 0),
		mk("low", time.Second, 1),
		mk("high", 2*time.Second, 0),
	}
	res := Replay(Config{Profile: noJitter, Replicas: 1, MaxBatch: 1}, reqs)
	if res.Completions[2].Start >= res.Completions[1].Start {
		t.Fatalf("high-priority request should start before the low-priority one: %v vs %v",
			res.Completions[2].Start, res.Completions[1].Start)
	}
}

// TestReplayArrivalTieBreak pins the admission order of colliding
// arrivals — the case generated multi-tenant traffic produces routinely,
// unlike hand-built schedules. Equal-arrival requests enter in (priority,
// submission index) order, regardless of how they interleave in the trace.
func TestReplayArrivalTieBreak(t *testing.T) {
	mk := func(agent string, at time.Duration, prio int) Request {
		return Request{Agent: agent, Arrival: at, Priority: prio,
			Prompt: sharedPrompt(agent, 10), OutTokens: 50}
	}
	// Two tenants collide at t=0 and again at t=5s; tenant B is submitted
	// first at the second collision but tenant A outranks it there.
	reqs := []Request{
		mk("tenantA-0", 0, 0),             // index 0: ties with index 1 → first
		mk("tenantB-0", 0, 0),             // index 1
		mk("tenantB-1", 5*time.Second, 1), // index 2: loses the t=5s tie on priority
		mk("tenantA-1", 5*time.Second, 0), // index 3
	}
	res := Replay(Config{Profile: noJitter, Replicas: 1, MaxBatch: 1}, reqs)
	if res.Completions[0].Start > res.Completions[1].Start {
		t.Fatalf("t=0 tie broke against submission order: A starts %v, B starts %v",
			res.Completions[0].Start, res.Completions[1].Start)
	}
	if res.Completions[3].Start >= res.Completions[2].Start {
		t.Fatalf("t=5s tie broke against priority: high-prio A starts %v, low-prio B starts %v",
			res.Completions[3].Start, res.Completions[2].Start)
	}
	// The order is a property of the trace, not of sort internals: a
	// permuted trace with the same (arrival, priority, per-tenant sequence)
	// content serves tenants' request streams at the same times.
	if again := Replay(Config{Profile: noJitter, Replicas: 1, MaxBatch: 1}, reqs); !reflect.DeepEqual(res, again) {
		t.Fatal("colliding-arrival replay not deterministic")
	}
}

func TestReplayEmptyAndSingle(t *testing.T) {
	if res := Replay(Config{Profile: noJitter}, nil); len(res.Completions) != 0 || res.Stats.Requests != 0 {
		t.Fatalf("empty replay = %+v", res)
	}
	res := Replay(Config{Profile: noJitter}, testTrace(1, 1, time.Second, 0))
	if len(res.Completions) != 1 || res.Completions[0].QueueWait != 0 {
		t.Fatalf("single replay = %+v", res.Completions)
	}
	if res.Makespan != res.Completions[0].Done {
		t.Fatal("makespan should equal the only completion")
	}
}

func TestReplayCompletionAccounting(t *testing.T) {
	reqs := testTrace(3, 3, 8*time.Second, 100*time.Millisecond)
	res := Replay(Config{Profile: noJitter, Replicas: 1, MaxBatch: 2, MaxWait: time.Second}, reqs)
	if len(res.Completions) != len(reqs) {
		t.Fatalf("%d completions for %d requests", len(res.Completions), len(reqs))
	}
	for i, c := range res.Completions {
		if c.Start < c.Arrival || c.Done <= c.Start {
			t.Fatalf("completion %d out of order: %+v", i, c)
		}
		if c.QueueWait != c.Start-c.Arrival {
			t.Fatalf("completion %d queue wait mismatch: %+v", i, c)
		}
		if c.BatchSize < 1 || c.BatchSize > 2 {
			t.Fatalf("completion %d batch size %d", i, c.BatchSize)
		}
	}
}

func TestSyncServeQueuesOverlappingArrivals(t *testing.T) {
	e := New(Config{Profile: noJitter, Replicas: 1})
	call := func(at time.Duration) llm.Served {
		return e.Serve(llm.Call{Agent: "a", Arrival: at,
			Prompt: sharedPrompt("a", 20), PromptTokens: 320, OutTokens: 50})
	}
	first := call(0)
	if first.QueueWait != 0 {
		t.Fatalf("first call queued: %+v", first)
	}
	second := call(time.Second) // replica still busy with the first
	if second.QueueWait <= 0 {
		t.Fatalf("overlapping call should queue: %+v", second)
	}
	third := call(first.Latency + second.Latency + 10*time.Second) // idle again
	if third.QueueWait != 0 {
		t.Fatalf("idle-endpoint call should not queue: %+v", third)
	}
}

func TestSyncServeReplicasAbsorbContention(t *testing.T) {
	wait := func(replicas int) time.Duration {
		e := New(Config{Profile: noJitter, Replicas: replicas})
		var total time.Duration
		for i := 0; i < 6; i++ {
			s := e.Serve(llm.Call{Agent: "a", Arrival: 0,
				Prompt: sharedPrompt("a", 20), PromptTokens: 320, OutTokens: 50})
			total += s.QueueWait
		}
		return total
	}
	if wait(4) >= wait(1) {
		t.Fatal("more replicas should absorb simultaneous arrivals")
	}
}

func TestSyncServeJoinWindowBatches(t *testing.T) {
	e := New(Config{Profile: noJitter, Replicas: 1, MaxBatch: 4, MaxWait: 2 * time.Second})
	first := e.Serve(llm.Call{Agent: "a0", Arrival: 0,
		Prompt: sharedPrompt("a0", 20), PromptTokens: 320, OutTokens: 50})
	// Arrives inside the join window: batches with the first instead of
	// queueing behind it.
	second := e.Serve(llm.Call{Agent: "a1", Arrival: time.Second,
		Prompt: sharedPrompt("a1", 20), PromptTokens: 320, OutTokens: 50})
	if second.QueueWait != 0 {
		t.Fatalf("joiner should not queue: %+v", second)
	}
	if second.Latency >= first.Latency+second.QueueWait+first.Latency {
		t.Fatal("joiner should ride the in-flight batch, not serialize")
	}
	if occ := e.Stats().BatchOccupancy(); occ <= 1 {
		t.Fatalf("occupancy = %.2f after a join", occ)
	}
	// Outside the window: a new batch that queues behind the old one.
	third := e.Serve(llm.Call{Agent: "a2", Arrival: 4 * time.Second,
		Prompt: sharedPrompt("a2", 20), PromptTokens: 320, OutTokens: 50})
	if third.QueueWait <= 0 {
		t.Fatalf("late call should queue, not join: %+v", third)
	}
}

func TestSyncServeDeterministic(t *testing.T) {
	run := func() []llm.Served {
		e := New(Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
			MaxWait: time.Second, CacheEntries: 32})
		var out []llm.Served
		for i := 0; i < 20; i++ {
			out = append(out, e.Serve(llm.Call{
				Agent:        fmt.Sprintf("a%d", i%4),
				Arrival:      time.Duration(i) * 700 * time.Millisecond,
				Prompt:       sharedPrompt(fmt.Sprintf("a%d", i%4), 30+i),
				PromptTokens: 330 + i, OutTokens: 50,
			}))
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("sync serving diverged across identical runs")
	}
}

func TestEndpointReset(t *testing.T) {
	e := New(Config{Profile: noJitter, Replicas: 1, CacheEntries: 16})
	e.Serve(llm.Call{Agent: "a", Arrival: 0, Prompt: sharedPrompt("a", 10), OutTokens: 20})
	if e.Stats().Requests != 1 {
		t.Fatal("request not recorded")
	}
	e.Reset()
	s := e.Stats()
	if s.Requests != 0 || s.QueueWait != 0 || s.Replicas != 1 {
		t.Fatalf("reset left stats behind: %+v", s)
	}
	after := e.Serve(llm.Call{Agent: "a", Arrival: 0, Prompt: sharedPrompt("a", 10), OutTokens: 20})
	if after.QueueWait != 0 || after.CachedTokens != 0 {
		t.Fatalf("reset left timeline or cache behind: %+v", after)
	}
}

func TestPrefixCacheMatchStopsAtFirstMiss(t *testing.T) {
	c := newPrefixCache(64, 0)
	shared := prompt.New(
		prompt.Section{Name: "system", Tokens: 100},
		prompt.Section{Name: "task", Tokens: 50},
		prompt.Section{Name: "obs", Tokens: 30},
	)
	c.insert(shared)
	// Same system/task prefix, diverging observation: only the prefix hits.
	diverged := prompt.New(
		prompt.Section{Name: "system", Tokens: 100},
		prompt.Section{Name: "task", Tokens: 50},
		prompt.Section{Name: "obs", Tokens: 31},
	)
	if got := c.match(diverged); got != 150 {
		t.Fatalf("prefix match = %d tokens, want 150", got)
	}
	// Diverging first section: nothing hits, later identical sections
	// cannot resurrect the chain.
	head := prompt.New(
		prompt.Section{Name: "system", Tokens: 101},
		prompt.Section{Name: "task", Tokens: 50},
	)
	if got := c.match(head); got != 0 {
		t.Fatalf("diverged-head match = %d tokens, want 0", got)
	}
	if got := c.match(shared); got != 180 {
		t.Fatalf("full match = %d tokens, want 180", got)
	}
}

func TestPrefixCacheLRUEviction(t *testing.T) {
	c := newPrefixCache(2, 0)
	pA := prompt.New(prompt.Section{Name: "a", Tokens: 10})
	pB := prompt.New(prompt.Section{Name: "b", Tokens: 10})
	pC := prompt.New(prompt.Section{Name: "c", Tokens: 10})
	c.insert(pA)
	c.insert(pB)
	c.insert(pA) // refresh A; B is now the LRU entry
	c.insert(pC) // evicts B
	if c.match(pB) != 0 {
		t.Fatal("LRU entry should have been evicted")
	}
	if c.match(pA) == 0 || c.match(pC) == 0 {
		t.Fatal("recently used entries should survive")
	}
	if len(c.index) > 2 {
		t.Fatalf("cache over capacity: %d entries", len(c.index))
	}
}

func TestConfigDefaults(t *testing.T) {
	e := New(Config{})
	cfg := e.Config()
	if cfg.Replicas != 1 || cfg.MaxBatch != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.CachedPrefillFrac != 0.1 {
		t.Fatalf("CachedPrefillFrac default = %v", cfg.CachedPrefillFrac)
	}
}

// BenchmarkReplay is the serving-simulator perf smoke: 8 streams × 32
// steps through a batched two-replica endpoint.
func BenchmarkReplay(b *testing.B) {
	cfg := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 256}
	reqs := testTrace(8, 32, 8*time.Second, 200*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(cfg, reqs)
	}
}

// BenchmarkReplayDeepQueue replays generated traffic deep enough to build
// real admission queues: 160 tenants whose arrivals are kept to 3-minute
// on-windows every 10 minutes over an hour (~9.6k requests), on an
// 8-replica, batch-8, 500 ms, cache-affinity, 8192-token GPT-4 endpoint.
// BenchmarkReplay's 8x32 trace never queues more than a batch.
func BenchmarkReplayDeepQueue(b *testing.B) {
	const on, period = 3 * time.Minute, 10 * time.Minute
	cfg := Config{Profile: llm.GPT4, Replicas: 8, MaxBatch: 8,
		MaxWait: 500 * time.Millisecond, Routing: RouteCacheAffinity, CacheTokens: 8192}
	var reqs []Request
	for _, r := range GenerateTraffic(Traffic{
		Tenants: 160, Horizon: time.Hour,
		Rate: (1.0 / 60) * float64(period) / float64(on), // one request a minute on average
		Seed: 101,
	}) {
		if r.Arrival%period < on {
			reqs = append(reqs, r)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(cfg, reqs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/request")
}
