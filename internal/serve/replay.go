package serve

import (
	"cmp"
	"slices"
	"time"

	"embench/internal/metrics"
	"embench/internal/prompt"
)

// Request is one entry of an open-loop request trace.
type Request struct {
	Agent     string
	Priority  int // lower is served first; FIFO within a class
	Arrival   time.Duration
	Prompt    prompt.Prompt
	OutTokens int
	// Deadline is the client's per-attempt timeout: an attempt whose batch
	// has not LAUNCHED within Deadline of the attempt entering admission is
	// abandoned (an in-flight batch always runs to completion). Expiry
	// triggers the config's RetryPolicy while budget remains; otherwise the
	// request resolves timed-out. 0 — the default — means no deadline, and
	// any resilient replay feature (this, retries, hedging, shedding,
	// fault injection) routes the trace through the resilient event loop;
	// all-zero traces on fault-free configs take the seed loop unchanged.
	Deadline time.Duration
}

// Completion describes how one replayed request was served. On a
// monolithic endpoint Start/Done bracket the request's single batch and
// the stage fields stay zero; on a disaggregated endpoint Start is the
// PREFILL batch launch, PrefillDone its completion, Done the DECODE batch
// completion, QueueWait the prefill-pool wait and DecodeWait the
// decode-pool wait (so Start - Arrival still equals QueueWait, per stage).
type Completion struct {
	Agent        string
	Arrival      time.Duration
	Start        time.Duration // batch launch time
	Done         time.Duration // batch completion time
	QueueWait    time.Duration // Start - Arrival
	BatchSize    int           // sequences in the request's (decode) batch
	PromptTokens int
	CachedTokens int
	// Disaggregated-endpoint stage split; zero on monolithic replays.
	PrefillDone time.Duration // prefill batch completion (handoff begins)
	DecodeWait  time.Duration // decode-pool admission-queue delay
	// Outcome labels resilient-replay resolutions: OutcomeServed (the zero
	// value — every fault-free replay's label), OutcomeShed (admission
	// rejected the request under load), or OutcomeTimedOut (deadline expired
	// with the retry budget exhausted). Shed and timed-out completions carry
	// Done = the resolution time and zero batch fields.
	Outcome Outcome
	// Retries / Hedged record how hard the client worked for a resilient
	// completion: re-issued attempts and whether a hedge duplicate was ever
	// issued (a served request with Hedged=true may have been won by either
	// copy).
	Retries int
	Hedged  bool
}

// ReplayResult bundles a replay's per-request completions (in submission
// order) with aggregate statistics.
type ReplayResult struct {
	Completions []Completion
	Stats       metrics.Serving
	Batches     int
	Makespan    time.Duration // last completion time
}

// Throughput reports served requests per simulated second over the
// makespan. A resilient replay's shed and timed-out resolutions were never
// served, so they do not count.
func (r ReplayResult) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	served := 0
	for i := range r.Completions {
		if r.Completions[i].Outcome == OutcomeServed {
			served++
		}
	}
	return float64(served) / r.Makespan.Seconds()
}

// Replay runs a full request trace through a fresh endpoint with a
// discrete-event loop: requests are admitted at their arrival times into a
// priority/FIFO queue, and batches of up to MaxBatch launch on an idle
// replica (picked by the routing policy) when the batch is full, when the
// oldest queued request has waited MaxWait, or when no further arrivals
// are pending. Batch pricing goes through the same admission helper as
// closed-loop serving, so a trace costs the same in either mode. All ties
// break on submission order, so the replay is a pure function of
// (cfg, reqs).
func Replay(cfg Config, reqs []Request) ReplayResult {
	return replayOn(New(cfg), reqs)
}

// replayOn is Replay's discrete-event loop over an already built endpoint
// (Replay and ReplayObserved share it). When a flight-recorder sink is
// attached, submit events for the whole trace are emitted up front in
// arrival order — so an exported replay trace is itself replayable — and
// every batch launch emits route/cache/batch_start/complete events.
func replayOn(e *Endpoint, reqs []Request) ReplayResult {
	if e.dis != nil {
		return replayDisagg(e, reqs)
	}
	if e.fx != nil || e.cfg.resilient() || anyDeadline(reqs) {
		// Fault injection and client resilience run in their own event loop
		// (resilience.go); the seed loop below stays byte-identical for every
		// fault-free, policy-free trace.
		return replayResilient(e, reqs)
	}
	res := ReplayResult{Completions: make([]Completion, len(reqs))}
	if len(reqs) == 0 {
		return res
	}
	keys, order := e.replayPlan(reqs)

	var queue admissionQueue // request indices
	var batch []int          // the launching batch's request indices (reused)
	nextArr := 0
	now := reqs[order[0]].Arrival
	done := 0

	admit := func() {
		for nextArr < len(order) && reqs[order[nextArr]].Arrival <= now {
			qi := order[nextArr]
			queue.push(reqs[qi].Priority, reqs[qi].Arrival, qi)
			nextArr++
		}
	}

	shouldLaunch := func() bool {
		if e.cfg.MaxBatch <= 1 || queue.len() >= e.cfg.MaxBatch {
			return true
		}
		if nextArr >= len(order) {
			return true // nothing else is coming; waiting is pure loss
		}
		return now-queue.oldest() >= e.cfg.MaxWait
	}

	for done < len(reqs) {
		// Replay every autoscale evaluation tick up to now before routing:
		// ticks are pure virtual-time events, so a long arrival gap replays
		// its missed ticks in order (scaling down step by step at the exact
		// times a denser event stream would have).
		e.maybeAutoscale(now)
		admit()

		// Launch batches while an idle replica and the policy allow; the
		// routing policy picks which idle replica hosts each batch.
		for queue.len() > 0 && shouldLaunch() {
			r := e.routeIdle(now, keys[queue.front()])
			if r == nil {
				break
			}
			batch = queue.popN(batch[:0], e.cfg.MaxBatch)
			n := len(batch)
			bkeys, outs := e.batchScratch(n)
			for bi, qi := range batch {
				bkeys[bi], outs[bi] = keys[qi], reqs[qi].OutTokens
			}
			var ri, evBefore int
			if e.sink != nil {
				ri = e.rindex(r)
				e.emitRoute(int64(batch[0])+1, now, r, bkeys[0])
				_, _, evBefore = r.cache.stats()
			}
			service, members, totalEff, maxOut := e.admitBatch(r, bkeys, outs)
			end := now + service
			e.sealFrontier(r)
			r.startBatch(now, end, n, totalEff, maxOut, service)
			e.busyAcc += service
			res.Batches++
			if e.sink != nil {
				for bi, qi := range batch {
					e.emitCache(int64(qi)+1, now, ri, members[bi].cached, members[bi].total)
				}
				if _, _, evAfter := r.cache.stats(); evAfter > evBefore {
					e.emitEvict(now, ri, evAfter-evBefore)
				}
				e.emitBatchStart(now, ri, n, totalEff, maxOut, service)
			}
			for bi, qi := range batch {
				rq := reqs[qi]
				wait := now - rq.Arrival
				res.Completions[qi] = Completion{
					Agent: rq.Agent, Arrival: rq.Arrival, Start: now, Done: end,
					QueueWait: wait, BatchSize: n,
					PromptTokens: members[bi].total, CachedTokens: members[bi].cached,
				}
				r.lats = append(r.lats, end-rq.Arrival)
				e.record(service, wait, n, members[bi].cached, members[bi].total)
				if e.sink != nil {
					e.emitComplete(int64(qi)+1, rq.Agent, ri, end, end-rq.Arrival, wait, n, members[bi].cached, members[bi].total)
				}
			}
			if end > res.Makespan {
				res.Makespan = end
			}
			done += n
		}
		if done >= len(reqs) {
			break
		}

		// Advance virtual time to the next event: an arrival, a replica
		// freeing, or the oldest queued request's wait window expiring.
		next := time.Duration(1<<63 - 1)
		if nextArr < len(order) {
			if t := reqs[order[nextArr]].Arrival; t < next {
				next = t
			}
		}
		if queue.len() > 0 && e.cfg.MaxBatch > 1 {
			// Only a future window expiry is an event; an already-expired
			// window means the queue is waiting on a replica, not on time.
			if t := queue.oldest() + e.cfg.MaxWait; t > now && t < next {
				next = t
			}
		}
		// Only active replicas are schedulable events: a warming replica's
		// freeAt (its cold-start expiry) counts, a parked one's does not.
		for ri := range e.replicas[:e.active] {
			if t := e.replicas[ri].freeAt; t > now && t < next {
				next = t
			}
		}
		if e.cfg.Autoscale.enabled() && e.asNext > now && e.asNext < next {
			// The next evaluation tick can change the active set (waking a
			// queue that is waiting on capacity), so it is an event too.
			next = e.asNext
		}
		if next <= now {
			next = now + time.Nanosecond // safety: time must advance
		}
		now = next
	}
	e.finishAutoscale(res.Makespan)
	res.Stats = e.Stats()
	return res
}

// replayPlan prepares a trace for either replay loop. It hashes every
// request's prefix chain once, under the endpoint's cache identity, into
// one shared section-key arena (routing probes and batch admissions reuse
// the memoized keys), and returns the order requests enter admission:
// (arrival, priority, submission index). Hand-built schedules rarely
// collide, but generated traffic (internal/serve/traffic.go) interleaves
// many tenants' seeded arrival processes and equal arrivals DO occur — the
// order they enter the admission queue must be pinned by the trace itself,
// never by sort internals. When a flight-recorder sink is attached, submit
// events for the whole trace are emitted here, in that order.
func (e *Endpoint) replayPlan(reqs []Request) (keys []promptKey, order []int) {
	secs := 0
	for i := range reqs {
		secs += len(reqs[i].Prompt.Sections)
	}
	arena := make([]sectionKey, 0, secs)
	keys = make([]promptKey, len(reqs))
	for i := range reqs {
		keys[i] = chainKeysIdent(arena[len(arena):len(arena):cap(arena)], reqs[i].Prompt, e.cfg.Identity)
		arena = arena[:len(arena)+len(keys[i].secs)]
	}

	order = make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		qa, qb := &reqs[a], &reqs[b]
		if c := cmp.Compare(qa.Arrival, qb.Arrival); c != 0 {
			return c
		}
		if c := cmp.Compare(qa.Priority, qb.Priority); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	if e.sink != nil {
		for _, qi := range order {
			rq := reqs[qi]
			e.emitSubmit(int64(qi)+1, rq.Agent, rq.Arrival, rq.Prompt, rq.OutTokens, rq.Priority)
		}
	}
	return keys, order
}
