package serve

import (
	"reflect"
	"testing"
	"time"

	"embench/internal/serve/obs"
)

// faultedCfg is a deliberately hostile resilient deployment for the
// fault tests: crashes every ~40s of uptime per replica, slow repairs,
// frequent 4x straggler episodes, and the full client policy ladder on a
// small pool so every mechanism (crash requeue, retry, hedge, shed,
// timeout) actually fires within a short trace.
func faultedCfg() Config {
	return Config{
		Profile: noJitter, Replicas: 3, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 64,
		Faults: Faults{
			MTBF: 40 * time.Second, MTTR: 10 * time.Second,
			StragglerEvery: 30 * time.Second, StragglerFor: 8 * time.Second,
			StragglerFactor: 4, Seed: 9,
		},
		Retry: RetryPolicy{Max: 2, Base: 300 * time.Millisecond, Factor: 2, Jitter: 0.5},
		Hedge: HedgePolicy{Delay: 4 * time.Second},
		Shed:  ShedPolicy{Queue: 30},
	}
}

// faultedTrace is a dense request stream with per-attempt deadlines
// tight enough that repair pile-ups expire them.
func faultedTrace() []Request {
	reqs := testTrace(8, 12, 2*time.Second, 150*time.Millisecond)
	for i := range reqs {
		reqs[i].Deadline = 12 * time.Second
	}
	return reqs
}

// TestFaultsDisabledByteIdentical pins the zero-value contract: a config
// carrying explicitly zero Faults and resilience policies is the SAME
// config as one that never mentions them — identical replay results,
// identical closed-loop outcomes, identical recorded event streams.
func TestFaultsDisabledByteIdentical(t *testing.T) {
	base := Config{Profile: noJitter, Replicas: 2, MaxBatch: 4,
		MaxWait: time.Second, CacheEntries: 64}
	with := base
	with.Faults, with.Retry, with.Hedge, with.Shed = Faults{}, RetryPolicy{}, HedgePolicy{}, ShedPolicy{}

	reqs := testTrace(6, 6, 4*time.Second, 300*time.Millisecond)
	recA, recB := obs.NewRecorder(), obs.NewRecorder()
	a := ReplayObserved(base, reqs, recA)
	b := ReplayObserved(with, reqs, recB)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("zero-value fault config changed the replay")
	}
	if !reflect.DeepEqual(recA.Events(), recB.Events()) {
		t.Fatalf("zero-value fault config changed the recorded stream")
	}

	ea, eb := New(base), New(with)
	for _, c := range monotoneCalls(24) {
		ra, rb := ea.Serve(c), eb.Serve(c)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("zero-value fault config changed a closed-loop result: %+v != %+v", ra, rb)
		}
	}
	if !reflect.DeepEqual(ea.Stats(), eb.Stats()) {
		t.Fatalf("zero-value fault config changed closed-loop stats")
	}
}

// TestFaultReplayDeterministicAndValidates drives the full resilient
// event loop under observation and checks three contracts at once: the
// sink never perturbs the simulation, reruns are byte-identical, and the
// recorded stream passes Validate (monotone Seq, per-kind invariants)
// while exercising every fault/resilience event kind.
func TestFaultReplayDeterministicAndValidates(t *testing.T) {
	cfg, reqs := faultedCfg(), faultedTrace()
	rec := obs.NewRecorder()
	a := ReplayObserved(cfg, reqs, rec)
	b := Replay(cfg, reqs)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("attaching a sink perturbed the fault-injected replay")
	}
	if c := Replay(cfg, reqs); !reflect.DeepEqual(b, c) {
		t.Fatalf("identical fault-injected replays diverged")
	}

	evs := rec.Events()
	if err := obs.Validate(evs); err != nil {
		t.Fatalf("fault-injected stream fails validation: %v", err)
	}
	kinds := map[obs.Kind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	for _, k := range []obs.Kind{
		obs.KindReplicaDown, obs.KindReplicaUp, obs.KindRetry,
		obs.KindHedge, obs.KindShed, obs.KindTimeout,
	} {
		if kinds[k] == 0 {
			t.Errorf("stream has no %s events — config not hostile enough for the test", k)
		}
	}
	if kinds[obs.KindReplicaDown] != kinds[obs.KindReplicaUp] {
		t.Errorf("replica_down/up events unbalanced: %d/%d",
			kinds[obs.KindReplicaDown], kinds[obs.KindReplicaUp])
	}

	// The stats carry the same story the stream does.
	s := a.Stats
	if s.Retries == 0 || s.HedgesIssued == 0 || s.ShedRequests == 0 ||
		s.TimedOut == 0 || s.FailedBatches == 0 || s.ReplicaDowntime == 0 {
		t.Errorf("resilience counters missing activity: %+v", s)
	}
	if s.HedgeWins > s.HedgesIssued {
		t.Errorf("hedge wins %d exceed hedges issued %d", s.HedgeWins, s.HedgesIssued)
	}
}

// downTimes extracts each replica's crash-window start times in order.
func downTimes(evs []obs.Event) map[int][]time.Duration {
	out := map[int][]time.Duration{}
	for _, ev := range evs {
		if ev.Kind == obs.KindReplicaDown {
			out[ev.Replica] = append(out[ev.Replica], ev.T)
		}
	}
	return out
}

// TestFaultScheduleTrafficIndependent pins the core schedule property:
// fault windows are a pure function of (Faults.Seed, replica slot), so
// two entirely different workloads replayed under the same fault config
// crash at the same virtual times — the shorter run's per-replica crash
// sequence is a prefix of the longer run's.
func TestFaultScheduleTrafficIndependent(t *testing.T) {
	cfg := faultedCfg()
	// No shedding/deadlines needed here; keep every request so the two
	// traces differ only in traffic shape.
	cfg.Shed = ShedPolicy{}
	short := testTrace(4, 6, 3*time.Second, 250*time.Millisecond)
	long := testTrace(9, 14, 2*time.Second, 100*time.Millisecond)

	recS, recL := obs.NewRecorder(), obs.NewRecorder()
	ReplayObserved(cfg, short, recS)
	ReplayObserved(cfg, long, recL)
	ds, dl := downTimes(recS.Events()), downTimes(recL.Events())
	if len(dl) == 0 {
		t.Fatalf("long run recorded no crashes")
	}
	for ri, ts := range ds {
		tl := dl[ri]
		a, b := ts, tl
		if len(a) > len(b) {
			a, b = b, a
		}
		if !reflect.DeepEqual(a, b[:len(a)]) {
			t.Errorf("replica %d: crash schedules diverge across workloads:\n short: %v\n  long: %v", ri, ts, tl)
		}
	}
}

// TestServingMergeSumsResilienceCounters pins the fleet-merge exactness
// of the new counters: merging two runs' Serving stats sums every
// resilience field exactly, in either merge order.
func TestServingMergeSumsResilienceCounters(t *testing.T) {
	cfg := faultedCfg()
	a := Replay(cfg, faultedTrace()).Stats
	cfg.Faults.Seed = 23
	b := Replay(cfg, testTrace(5, 9, 3*time.Second, 120*time.Millisecond)).Stats

	m := a.Merge(b)
	if m.ShedRequests != a.ShedRequests+b.ShedRequests ||
		m.Retries != a.Retries+b.Retries ||
		m.HedgesIssued != a.HedgesIssued+b.HedgesIssued ||
		m.HedgeWins != a.HedgeWins+b.HedgeWins ||
		m.TimedOut != a.TimedOut+b.TimedOut ||
		m.FailedBatches != a.FailedBatches+b.FailedBatches ||
		m.ReplicaDowntime != a.ReplicaDowntime+b.ReplicaDowntime {
		t.Fatalf("merge does not sum resilience counters exactly:\n a: %+v\n b: %+v\n m: %+v", a, b, m)
	}
	if r := b.Merge(a); !reflect.DeepEqual(m, r) {
		t.Fatalf("resilience-counter merge is order-dependent")
	}
}

// TestValidateRejectsResilientDisagg pins the scope boundary: fault
// injection and client resilience are monolithic-endpoint features, so a
// disaggregated config carrying either must fail validation loudly.
func TestValidateRejectsResilientDisagg(t *testing.T) {
	base := Config{Profile: noJitter, Replicas: 2,
		Prefill: PoolConfig{Replicas: 1}, Decode: PoolConfig{Replicas: 1}}
	for name, mut := range map[string]func(*Config){
		"faults": func(c *Config) { c.Faults = Faults{MTBF: time.Minute} },
		"retry":  func(c *Config) { c.Retry = RetryPolicy{Max: 1} },
		"hedge":  func(c *Config) { c.Hedge = HedgePolicy{Delay: time.Second} },
		"shed":   func(c *Config) { c.Shed = ShedPolicy{Queue: 1} },
	} {
		cfg := base
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s + disaggregation validated; want an error", name)
		}
	}
}

// TestReplayThroughputCountsServedOnly: a shedding, deadline-bound replay
// resolves some requests shed or timed out; Throughput must count only
// the served ones, not every completion record.
func TestReplayThroughputCountsServedOnly(t *testing.T) {
	cfg := Config{Profile: noJitter, Replicas: 1, MaxBatch: 2,
		MaxWait: time.Second, CacheEntries: 64, Shed: ShedPolicy{Queue: 4}}
	reqs := testTrace(8, 6, 2*time.Second, 100*time.Millisecond)
	for i := range reqs {
		reqs[i].Deadline = 20 * time.Second
	}
	res := Replay(cfg, reqs)
	served, dropped := 0, 0
	for _, c := range res.Completions {
		if c.Outcome == OutcomeServed {
			served++
		} else {
			dropped++
		}
	}
	if served == 0 || dropped == 0 {
		t.Fatalf("want both served and shed/timed-out requests, got %d served, %d not", served, dropped)
	}
	if got, want := res.Throughput(), float64(served)/res.Makespan.Seconds(); got != want {
		t.Fatalf("Throughput = %v req/s, want %v (%d served over %v)", got, want, served, res.Makespan)
	}
}
