package serve

import (
	"time"

	"embench/internal/llm"
	"embench/internal/metrics"
	"embench/internal/prompt"
	"embench/internal/serve/obs"
)

// replica is one model instance's timeline position: when it frees, the
// shape of its in-flight frontier batch (for continuous-batching joins),
// and its own prefix/KV cache — cache state is per instance, which is what
// makes cache-affinity routing meaningful.
type replica struct {
	cache      *prefixCache
	requests   int // requests this replica has served (placement spread)
	freeAt     time.Duration
	batchStart time.Duration
	batchEnd   time.Duration
	batchN     int
	batchTok   float64 // effective (cache-discounted) prefill tokens
	batchOut   int     // longest generation in the batch
	// Stats already recorded for the in-flight batch's members, so joins
	// can retroactively restate them at the batch's final size (keeping
	// closed-loop accounting identical to Replay's, where every member
	// reports the whole batch's size and service time).
	recSeqs    int
	recService time.Duration
	// lats holds the frontier batch members' end-to-end latencies at the
	// batch's CURRENT completion time. They cannot go into the latency
	// histogram yet: a continuous-batching join extends the batch and
	// restates every member's completion, and the histogram — unlike the
	// Service sum — cannot subtract a bucketed value back out. So final
	// latencies are buffered here, shifted on join, and folded into the
	// histogram only once the frontier is sealed (replaced by the next
	// batch, or snapshotted by Stats).
	lats []time.Duration
}

// startBatch rewrites the replica's frontier for a freshly launched batch,
// preserving the replica's cache, request count and (emptied) latency
// buffer across the rewrite. Callers fold the old frontier's latencies
// first — see Endpoint.sealFrontier.
func (r *replica) startBatch(start, end time.Duration, n int, tok float64, out int, service time.Duration) {
	cache, requests, lats := r.cache, r.requests, r.lats
	*r = replica{
		cache: cache, requests: requests, lats: lats[:0],
		freeAt: end, batchStart: start, batchEnd: end,
		batchN: n, batchTok: tok, batchOut: out,
		recSeqs: n * n, recService: time.Duration(n) * service,
	}
}

// Endpoint is one shared serving deployment. It is not safe for concurrent
// use by itself: a single simulated episode may own one directly (the
// per-episode closed loop of fig8), while cross-episode sharing goes
// through Fleet, which serializes and deterministically orders access.
type Endpoint struct {
	cfg      Config
	replicas []replica
	stats    metrics.Serving
	// Autoscaler state (see autoscale.go). active is the routable prefix
	// of replicas — replicas[:active] take traffic, the rest are parked.
	// With autoscaling disabled active == len(replicas) always, so every
	// routing loop over the active slice is byte-identical to the
	// fixed-replica behaviour.
	active   int
	asNext   time.Duration // next evaluation tick (enabled only)
	asLast   time.Duration // previous tick (replica-time integral anchor)
	busyAcc  time.Duration // cumulative in-batch replica time
	lastBusy time.Duration // busyAcc at the previous evaluation
	// Single-call scratch, reused across Serve calls (the endpoint is not
	// concurrency-safe by contract): the prefix-chain buffer, plus
	// one-element admission slices so the unbatched hot path allocates
	// nothing per request.
	kbuf   []sectionKey
	oneKey [1]promptKey
	oneOut [1]int
	mbuf   []admitted
	// Batch-call scratch for ServeBatch and replay launches (same
	// contract): the per-member key and out-token slices (batchScratch),
	// plus ServeBatch's shared section-key arena the members' chains are
	// sliced out of — sized up front so appending never reallocates under
	// an already-handed-out promptKey.
	bkeys  []promptKey
	bouts  []int
	barena []sectionKey
	seen   map[uint64]bool // batchPressure's dedup scratch
	// Flight-recorder seam (see obs.go / internal/serve/obs): nil sink is
	// the zero-cost default — every emission below is guarded, so the
	// un-instrumented path is byte-identical and allocation-free. shard
	// tags events when a ShardedFleet shares one sink; reqID numbers
	// requests within this source (sink-path only).
	sink  obs.Sink
	shard int
	reqID int64
	// fx, when non-nil, is the fault-injection state (see faults.go): the
	// per-replica crash and straggler schedules plus the serving-path hooks
	// that apply them. nil — the zero-value Faults default — leaves every
	// path byte-identical to fault-free builds, same contract as sink/dis.
	fx *faultState
	// dis, when non-nil, makes this endpoint a disaggregated parent: every
	// serving entry point dispatches to the prefill/decode stage pools (see
	// disagg.go) and the fields above except sink/shard go unused. nil — the
	// default for every monolithic config — leaves all paths byte-identical
	// to builds predating disaggregation.
	dis *disaggState
}

// batchScratch returns the endpoint's reused per-member key and
// out-token slices, sized n. ServeBatch and both replay loops fill them
// for admitBatch; their contents are valid until the next call.
func (e *Endpoint) batchScratch(n int) ([]promptKey, []int) {
	if cap(e.bkeys) < n {
		e.bkeys = make([]promptKey, n)
		e.bouts = make([]int, n)
	}
	return e.bkeys[:n], e.bouts[:n]
}

// Compile-time checks: an endpoint is a drop-in serving backend for llm
// clients, including explicitly aggregated step-phase batches.
var (
	_ llm.Backend      = (*Endpoint)(nil)
	_ llm.BatchBackend = (*Endpoint)(nil)
)

// New builds an endpoint from cfg (zero fields defaulted). A config with
// both Prefill and Decode pools set builds a disaggregated endpoint — two
// inner stage pools behind one Backend-compatible front (see disagg.go).
// New panics on a config Validate rejects; callers that want a clean error
// (the CLI) should Validate first.
func New(cfg Config) *Endpoint {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Disaggregated() {
		d := cfg.withDefaults()
		d.Replicas = 0 // the monolithic pool does not exist
		return &Endpoint{cfg: d, dis: newDisagg(d)}
	}
	cfg = cfg.withDefaults()
	e := &Endpoint{
		cfg:      cfg,
		replicas: make([]replica, cfg.Replicas),
	}
	for i := range e.replicas {
		e.replicas[i].cache = newPrefixCache(cfg.CacheEntries, cfg.CacheTokens)
	}
	e.stats.Replicas = cfg.Replicas
	e.active = cfg.Replicas
	if cfg.Autoscale.enabled() {
		e.active = cfg.Autoscale.Min
		e.asNext = cfg.Autoscale.Interval
	}
	if cfg.Faults.enabled() {
		e.fx = newFaultState(cfg.Faults, cfg.Replicas)
	}
	return e
}

// TryNew is New with the panic turned into an error: it validates cfg and
// builds the endpoint, so flag-driven callers (the CLI, experiment sweeps)
// can reject a bad config cleanly instead of crashing.
func TryNew(cfg Config) (*Endpoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return New(cfg), nil
}

// chainInto hashes a prompt's prefix chain under the endpoint's configured
// cache identity, reusing buf's backing array.
func (e *Endpoint) chainInto(buf []sectionKey, p prompt.Prompt) promptKey {
	return chainKeysIdent(buf, p, e.cfg.Identity)
}

// Config reports the endpoint's effective (defaulted) configuration.
func (e *Endpoint) Config() Config { return e.cfg }

// Stats reports accumulated serving statistics, including the per-replica
// request spread and the cache-memory rollup (peak live tokens across
// replicas, total capacity-evicted tokens). In-flight frontier batches'
// member latencies are folded into the returned snapshot's histogram (the
// endpoint's own buffers are left alone, so a later join can still restate
// them).
func (e *Endpoint) Stats() metrics.Serving {
	if e.dis != nil {
		return e.dis.fold()
	}
	s := e.stats
	s.ReplicaRequests = make([]int, len(e.replicas))
	for i := range e.replicas {
		s.ReplicaRequests[i] = e.replicas[i].requests
		_, peak, evicted := e.replicas[i].cache.stats()
		s.EvictedTokens += evicted
		if peak > s.CacheTokensPeak {
			s.CacheTokensPeak = peak
		}
		for _, l := range e.replicas[i].lats {
			s.LatencyHist.Observe(l)
		}
	}
	return s
}

// sealFrontier folds a replica's frontier-batch member latencies into the
// stats histogram and clears the buffer: the frontier is being replaced
// (or the replica retired), so those completions can no longer be restated
// by a join.
func (e *Endpoint) sealFrontier(r *replica) {
	if e.sink != nil && len(r.lats) > 0 {
		e.sink.Event(obs.Event{
			Kind: obs.KindBatchSeal, T: r.batchEnd, Shard: e.shard,
			Replica: e.rindex(r), Batch: len(r.lats),
		})
	}
	for _, l := range r.lats {
		e.stats.LatencyHist.Observe(l)
	}
	r.lats = r.lats[:0]
}

// ServingStats implements the serving-statistics seam the episode runners
// read at episode end; for a dedicated endpoint it is simply Stats.
func (e *Endpoint) ServingStats() metrics.Serving { return e.Stats() }

// Reset clears timeline, caches, statistics and autoscaler state for reuse.
func (e *Endpoint) Reset() {
	if e.dis != nil {
		e.dis.prefill.Reset()
		e.dis.decode.Reset()
		e.dis.stats = metrics.Serving{}
		e.reqID = 0
		return
	}
	for i := range e.replicas {
		e.replicas[i] = replica{cache: newPrefixCache(e.cfg.CacheEntries, e.cfg.CacheTokens)}
	}
	e.stats = metrics.Serving{Replicas: e.cfg.Replicas}
	e.active = e.cfg.Replicas
	e.asNext, e.asLast, e.busyAcc, e.lastBusy = 0, 0, 0, 0
	e.reqID = 0
	if e.cfg.Autoscale.enabled() {
		e.active = e.cfg.Autoscale.Min
		e.asNext = e.cfg.Autoscale.Interval
	}
	if e.cfg.Faults.enabled() {
		// Fresh streams: a reset endpoint replays the same fault schedule.
		e.fx = newFaultState(e.cfg.Faults, e.cfg.Replicas)
	}
}

// Serve is the closed-loop entry point: one live request, submitted at the
// calling agent's virtual time, resolved immediately against the endpoint's
// current timeline. It implements llm.Backend.
//
// Admission is in submission order (the order episode code issues calls, or
// the globally merged virtual-time order under a Fleet), which is
// deterministic; arrival timestamps still drive queueing delay and
// batching, so contention emerges whenever per-agent clocks overlap.
// Continuous batching appears as a join window: a request arriving within
// MaxWait of the frontier batch's start joins it, paying its own prefill
// and the incremental decode slowdown, without disturbing the already
// reported completions of earlier members. The routing policy picks the
// replica (see RoutingPolicy).
func (e *Endpoint) Serve(c llm.Call) llm.Served {
	if e.dis != nil {
		return e.dis.serve(e, c)
	}
	if e.fx != nil {
		// Apply every crash window that has begun by the arrival watermark
		// first, so routing and the autoscaler below see live replicas only.
		e.applyFaults(c.Arrival)
	}
	e.maybeAutoscale(c.Arrival)
	// Hash the prompt's prefix chain exactly once; routing probes and
	// admission pricing below all share this key.
	k := e.chainInto(e.kbuf, c.Prompt)
	e.kbuf = k.secs
	var req int64
	if e.sink != nil {
		req = e.nextReq()
		e.emitSubmit(req, c.Agent, c.Arrival, c.Prompt, c.OutTokens, 0)
	}
	r := e.route(c.Arrival, k, c.OutTokens)
	if e.sink != nil {
		e.emitRoute(req, c.Arrival, r, k)
	}

	// Join the in-flight frontier batch when the window allows. Under fault
	// injection a join must also prove the extended batch still ends before
	// the replica's next scheduled crash (joinSafe probes without mutating);
	// an unsafe join falls through to the new-batch path, whose crash-retry
	// loop re-routes the request.
	if e.cfg.MaxBatch > 1 && r.batchN > 0 && r.batchN < e.cfg.MaxBatch &&
		c.Arrival <= r.batchStart+e.cfg.MaxWait && r.freeAt > c.Arrival &&
		(e.fx == nil || e.joinSafe(r, k, c.OutTokens)) {
		var ri, evBefore int
		if e.sink != nil {
			ri = e.rindex(r)
			_, _, evBefore = r.cache.stats()
		}
		eff, cached, total := e.promptCostOn(r, k)
		r.requests++
		r.batchN++
		r.batchTok += eff
		if c.OutTokens > r.batchOut {
			r.batchOut = c.OutTokens
		}
		svc := e.cfg.Profile.BatchServiceTime(r.batchN, r.batchTok, r.batchOut)
		if e.fx != nil {
			// The in-flight batch launched under this straggler factor; its
			// extension pays the same slowdown.
			if f := e.fx.clocks[e.rindex(r)].batchFactor; f > 1 {
				svc = time.Duration(float64(svc) * f)
			}
		}
		end := r.batchStart + svc
		if end < r.batchEnd {
			end = r.batchEnd
		}
		// The join restates every member's completion to the new end: shift
		// the buffered final latencies by the extension before appending the
		// joiner's own.
		for i := range r.lats {
			r.lats[i] += end - r.batchEnd
		}
		r.lats = append(r.lats, end-c.Arrival)
		e.busyAcc += end - r.batchEnd
		if e.sink != nil {
			e.emitCache(req, c.Arrival, ri, cached, total)
			if _, _, evAfter := r.cache.stats(); evAfter > evBefore {
				e.emitEvict(c.Arrival, ri, evAfter-evBefore)
			}
			e.sink.Event(obs.Event{
				Kind: obs.KindBatchJoin, T: c.Arrival, Shard: e.shard,
				Replica: ri, Req: req, Batch: r.batchN, Dur: end - r.batchEnd,
			})
		}
		r.batchEnd, r.freeAt = end, end
		wait := time.Duration(0)
		if c.Arrival < r.batchStart {
			wait = r.batchStart - c.Arrival
		}
		// Restate the batch's stats at its new size: every member — the
		// already-reported ones included — rode a batch of batchN sequences
		// taking (end - start) each.
		e.stats.Requests++
		e.stats.QueueWait += wait
		e.stats.QueueWaitHist.Observe(wait)
		perMember := end - r.batchStart
		e.stats.Service += time.Duration(r.batchN)*perMember - r.recService
		r.recService = time.Duration(r.batchN) * perMember
		e.stats.BatchedSeqs += r.batchN*r.batchN - r.recSeqs
		r.recSeqs = r.batchN * r.batchN
		e.stats.PrefillTokens += total
		e.stats.CachedTokens += cached
		if e.sink != nil {
			e.emitComplete(req, c.Agent, ri, end, end-c.Arrival, wait, r.batchN, cached, total)
		}
		// Decode share: the member's in-batch time minus the batch priced at
		// zero output, clamped to its own as-served latency (a late joiner's
		// latency can be shorter than the batch span it rode).
		dec := (end - r.batchStart) - e.cfg.Profile.BatchServiceTime(r.batchN, r.batchTok, 0)
		if dec < 0 {
			dec = 0
		}
		if lat := end - c.Arrival; dec > lat {
			dec = lat
		}
		return llm.Served{
			Latency: end - c.Arrival, QueueWait: wait,
			BatchSize: r.batchN, CachedTokens: cached, PromptTokens: total,
			Decode: dec,
		}
	}

	// Start a new batch: queue behind the replica's frontier if busy. Under
	// fault injection the admission may fail — the batch's service span hits
	// a scheduled crash — in which case the crash kills the batch and the
	// request re-enters admission at the crash time, routing again among the
	// surviving replicas (deterministically: the schedule is seeded).
	e.oneKey[0], e.oneOut[0] = k, c.OutTokens
	var (
		start, service time.Duration
		members        []admitted
		totalEff       float64
		maxOut         int
		ri, evBefore   int
	)
	arrival := c.Arrival
	for {
		start = arrival
		if r.freeAt > start {
			start = r.freeAt
		}
		if e.fx != nil {
			// Crash windows opening while the replica sits idle (or warms up
			// after a scale-up) push its availability back before the batch
			// can begin.
			fi := e.rindex(r)
			e.applyIdleCrashes(r, fi, start)
			if r.freeAt > start {
				start = r.freeAt
			}
		}
		if e.sink != nil {
			ri = e.rindex(r)
			_, _, evBefore = r.cache.stats()
		}
		service, members, totalEff, maxOut = e.admitBatch(r, e.oneKey[:], e.oneOut[:])
		if e.fx == nil {
			break
		}
		fi := e.rindex(r)
		f := e.stragFactor(fi, start)
		if f > 1 {
			service = time.Duration(float64(service) * f)
		}
		if w, hit := e.crashIn(fi, start, start+service); hit {
			// Undo the admission the crash voided: the replica never served
			// the request (its count reverts), but the span it burned until
			// the crash is real occupancy — the autoscaler sees failures as
			// scale-up pressure. crashReplica flushes the cache, erasing the
			// admission's inserted prefixes along with the warm state.
			r.requests--
			e.busyAcc += w.start - start
			e.crashReplica(r, fi, w, 1)
			e.applyFaults(w.start)
			arrival = w.start
			r = e.route(arrival, k, c.OutTokens)
			if e.sink != nil {
				e.emitRoute(req, arrival, r, k)
			}
			continue
		}
		e.fx.clocks[fi].batchFactor = f
		break
	}
	wait := start - c.Arrival
	end := start + service
	e.sealFrontier(r)
	r.startBatch(start, end, 1, totalEff, maxOut, service)
	r.lats = append(r.lats, end-c.Arrival)
	e.busyAcc += service
	e.record(service, wait, 1, members[0].cached, members[0].total)
	if e.sink != nil {
		e.emitCache(req, c.Arrival, ri, members[0].cached, members[0].total)
		if _, _, evAfter := r.cache.stats(); evAfter > evBefore {
			e.emitEvict(c.Arrival, ri, evAfter-evBefore)
		}
		e.emitBatchStart(start, ri, 1, totalEff, maxOut, service)
		e.emitComplete(req, c.Agent, ri, end, end-c.Arrival, wait, 1, members[0].cached, members[0].total)
	}
	dec := service - e.cfg.Profile.BatchServiceTime(1, totalEff, 0)
	if dec < 0 {
		dec = 0
	}
	return llm.Served{
		Latency: end - c.Arrival, QueueWait: wait,
		BatchSize: 1, CachedTokens: members[0].cached, PromptTokens: members[0].total,
		Decode: dec,
	}
}

// ServeBatch serves an explicitly aggregated batch (llm.BatchBackend): the
// calls launch together as one batch on one replica, starting once the
// last member has arrived and the replica frees. Client-side aggregation
// supersedes the server's join cap — the batch is one request, so MaxBatch
// does not split it — but a later join-window arrival may still ride along
// while slots remain. Results are in submission order.
func (e *Endpoint) ServeBatch(calls []llm.Call) []llm.Served {
	if len(calls) == 0 {
		return nil
	}
	if len(calls) == 1 {
		return []llm.Served{e.Serve(calls[0])}
	}
	if e.dis != nil {
		return e.dis.serveBatch(e, calls)
	}
	arrival := calls[0].Arrival
	for _, c := range calls[1:] {
		if c.Arrival > arrival {
			arrival = c.Arrival
		}
	}
	e.maybeAutoscale(arrival)
	// Hash the members' prefix chains into endpoint-owned scratch, exactly
	// as Serve does for a single call: the key/out slices are reused across
	// ServeBatch calls, and the chains share one section-key arena that is
	// sized up front (growing it mid-loop would reallocate the backing
	// array out from under the keys already built).
	keys, outs := e.batchScratch(len(calls))
	secs := 0
	for _, c := range calls {
		secs += len(c.Prompt.Sections)
	}
	if cap(e.barena) < secs {
		e.barena = make([]sectionKey, 0, secs)
	}
	arena := e.barena[:0]
	for i, c := range calls {
		keys[i] = e.chainInto(arena[len(arena):len(arena):cap(arena)], c.Prompt)
		arena = arena[:len(arena)+len(keys[i].secs)]
		outs[i] = c.OutTokens
	}
	if e.fx != nil {
		e.applyFaults(arrival)
	}
	r := e.routeBatch(arrival, keys, calls[0].OutTokens)
	var reqIDs []int64
	if e.sink != nil {
		reqIDs = make([]int64, len(calls))
		for i, c := range calls {
			reqIDs[i] = e.nextReq()
			e.emitSubmit(reqIDs[i], c.Agent, c.Arrival, c.Prompt, c.OutTokens, 0)
		}
		e.emitRoute(reqIDs[0], arrival, r, keys[0])
	}
	// Same crash-retry shape as Serve's new-batch path: an explicit batch
	// whose span hits a scheduled crash dies whole and re-enters admission
	// at the crash time.
	var (
		start, service time.Duration
		members        []admitted
		totalEff       float64
		maxOut         int
		ri, evBefore   int
	)
	for {
		start = arrival
		if r.freeAt > start {
			start = r.freeAt
		}
		if e.fx != nil {
			fi := e.rindex(r)
			e.applyIdleCrashes(r, fi, start)
			if r.freeAt > start {
				start = r.freeAt
			}
		}
		if e.sink != nil {
			ri = e.rindex(r)
			_, _, evBefore = r.cache.stats()
		}
		service, members, totalEff, maxOut = e.admitBatch(r, keys, outs)
		if e.fx == nil {
			break
		}
		fi := e.rindex(r)
		f := e.stragFactor(fi, start)
		if f > 1 {
			service = time.Duration(float64(service) * f)
		}
		if w, hit := e.crashIn(fi, start, start+service); hit {
			r.requests -= len(calls)
			e.busyAcc += w.start - start
			e.crashReplica(r, fi, w, len(calls))
			e.applyFaults(w.start)
			arrival = w.start
			r = e.routeBatch(arrival, keys, calls[0].OutTokens)
			if e.sink != nil {
				e.emitRoute(reqIDs[0], arrival, r, keys[0])
			}
			continue
		}
		e.fx.clocks[fi].batchFactor = f
		break
	}
	end := start + service
	e.sealFrontier(r)
	r.startBatch(start, end, len(calls), totalEff, maxOut, service)
	e.busyAcc += service
	if e.sink != nil {
		for i := range calls {
			e.emitCache(reqIDs[i], arrival, ri, members[i].cached, members[i].total)
		}
		if _, _, evAfter := r.cache.stats(); evAfter > evBefore {
			e.emitEvict(arrival, ri, evAfter-evBefore)
		}
		e.emitBatchStart(start, ri, len(calls), totalEff, maxOut, service)
	}
	dec := service - e.cfg.Profile.BatchServiceTime(len(calls), totalEff, 0)
	if dec < 0 {
		dec = 0
	}
	out := make([]llm.Served, len(calls))
	for i, c := range calls {
		wait := start - c.Arrival
		r.lats = append(r.lats, end-c.Arrival)
		e.record(service, wait, len(calls), members[i].cached, members[i].total)
		if e.sink != nil {
			e.emitComplete(reqIDs[i], c.Agent, ri, end, end-c.Arrival, wait, len(calls), members[i].cached, members[i].total)
		}
		out[i] = llm.Served{
			Latency: end - c.Arrival, QueueWait: wait,
			BatchSize: len(calls), CachedTokens: members[i].cached,
			PromptTokens: members[i].total, Decode: dec,
		}
	}
	return out
}

// record folds one served request into the running statistics. Queue waits
// go straight into the histogram — they are final at admission and never
// restated; end-to-end latencies ride the replica's frontier buffer instead
// (see replica.lats).
func (e *Endpoint) record(service, wait time.Duration, batchN, cached, total int) {
	e.stats.Requests++
	e.stats.QueueWait += wait
	e.stats.QueueWaitHist.Observe(wait)
	e.stats.Service += service
	e.stats.BatchedSeqs += batchN
	e.stats.PrefillTokens += total
	e.stats.CachedTokens += cached
}
