package serve

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"embench/internal/rng"
)

// This file is the resilient open-loop event loop: Replay with fault
// injection (serve.Faults) and client resilience (Request.Deadline,
// RetryPolicy, HedgePolicy, ShedPolicy) in play. replayOn dispatches here
// whenever any of those is enabled; the seed loop in replay.go stays
// byte-identical for fault-free, policy-free traces.
//
// The unit of scheduling is an ATTEMPT: one service try of a logical
// request — the original submission, a deadline-triggered retry, or a hedge
// duplicate. Attempts queue, batch and launch exactly like requests do in
// the seed loop; the logical request resolves with the first attempt whose
// batch completes (ties break toward the earlier attempt), and its
// remaining attempts are cancelled — free while still queued, priced as
// wasted replica occupancy once launched. A replica crash kills the whole
// in-flight batch: its attempts re-enter the admission queue at the crash
// instant with their arrival times intact (deadline-expired ones time out
// right there), so every injected failure's requests are re-served, shed or
// timed out explicitly — never silently lost.
//
// Everything is deterministic: fault schedules and retry jitter come from
// named RNG streams (per replica slot and per request index respectively),
// every same-instant tie processes in a fixed category order (completions,
// timeouts, timers, arrivals, launches) with index tie-breaks, so a
// resilient replay is a pure function of (cfg, reqs) — byte-identical
// across reruns and worker counts, and its Serving counters merge exactly.
//
// Accounting convention: flow statistics (Requests, Service, QueueWait,
// BatchedSeqs, prompt/cache tokens, LatencyHist) count WINNING attempts
// only — the work the client actually received, with latency measured from
// the original arrival. Losing hedges, crash-killed batches and abandoned
// attempts still burn replica occupancy (busyAcc, so autoscaler utilization
// sees failures as scale-up pressure) and are visible through the dedicated
// counters: Retries, HedgesIssued/HedgeWins, TimedOut, ShedRequests,
// FailedBatches, ReplicaDowntime.

// Outcome labels how a replayed logical request resolved.
type Outcome string

const (
	// OutcomeServed is the zero value: the request completed. Fault-free
	// replays never set the field, keeping their Completions byte-identical.
	OutcomeServed Outcome = ""
	// OutcomeShed means admission rejected the request under load (ShedPolicy).
	OutcomeShed Outcome = "shed"
	// OutcomeTimedOut means the deadline expired with no retry budget left.
	OutcomeTimedOut Outcome = "timeout"
)

// resilient reports whether any client-resilience policy is configured.
func (c Config) resilient() bool {
	return c.Retry.enabled() || c.Hedge.enabled() || c.Shed.enabled()
}

// anyDeadline reports whether any request carries a per-attempt deadline.
func anyDeadline(reqs []Request) bool {
	for i := range reqs {
		if reqs[i].Deadline > 0 {
			return true
		}
	}
	return false
}

// rAttempt is one service attempt of a logical request.
type rAttempt struct {
	req     int           // logical request index
	hedge   bool          // a hedge duplicate (vs original/retry)
	arrival time.Duration // when the attempt entered admission
	// Batch state once launched:
	inflight             bool
	start, end, service  time.Duration
	batch, cached, total int
	ri                   int // replica that hosted the batch
}

// rState is one logical request's resilience bookkeeping.
type rState struct {
	retries    int  // retries used (attempt number of the latest wave)
	wave       int  // non-hedge attempt generation; hedge timers carry it
	hedged     bool // a hedge was issued in the current wave
	everHedged bool
	live       int // attempts currently queued or in service
	done       bool
	st         *rng.Stream // lazy per-request backoff jitter stream
}

// timer kinds: a scheduled retry re-entry or a hedge issue point.
const (
	timerRetry = iota
	timerHedge
)

// rTimer is a scheduled future admission event.
type rTimer struct {
	at   time.Duration
	seq  int // insertion order, the same-instant tie-break
	kind int
	req  int
	wave int           // hedge: issuing wave (stale timers are ignored)
	dur  time.Duration // retry: the backoff, for the retry event
}

// replayResilient is the discrete-event loop behind Replay when fault
// injection or client resilience is enabled. See the file comment for the
// model; the batching/launch mechanics mirror replayOn.
func replayResilient(e *Endpoint, reqs []Request) ReplayResult {
	res := ReplayResult{Completions: make([]Completion, len(reqs))}
	if len(reqs) == 0 {
		return res
	}

	keys, order := e.replayPlan(reqs)

	states := make([]rState, len(reqs))
	var attempts []rAttempt
	var queue admissionQueue // attempt ids, by (priority, attempt arrival, id)
	var inflight []int       // attempt ids whose batch is running
	var batch, expired []int // per-launch / per-instant scratch (reused)
	var timers []rTimer
	timerSeq := 0
	// Retry jitter shares the fault seed's root (zero is a valid seed): the
	// stream is per request INDEX, so a request's backoff schedule is
	// independent of when — or on which replica — its attempts ran.
	retrySrc := rng.New(e.cfg.Faults.Seed).Sub("serve/retry")

	nextArr := 0
	now := reqs[order[0]].Arrival
	doneCount := 0
	hasDeadlines := anyDeadline(reqs)
	// minExpiry bounds every queued attempt's deadline from below: step 6
	// computes it, and until then the queue only loses attempts.
	minExpiry := time.Duration(1<<63 - 1)

	// queueAttempt puts attempt ai into admission under its request's
	// priority and the attempt's own arrival.
	queueAttempt := func(ai int) {
		queue.push(reqs[attempts[ai].req].Priority, attempts[ai].arrival, ai)
	}
	// expiry is a queued attempt's deadline instant (deadline requests only).
	expiry := func(ai int) time.Duration {
		return attempts[ai].arrival + reqs[attempts[ai].req].Deadline
	}

	shedNow := func(t time.Duration, prio int) bool {
		p := e.cfg.Shed
		if !p.enabled() || prio < p.Priority {
			return false
		}
		if p.Queue > 0 && queue.len() >= p.Queue {
			return true
		}
		return p.Wait > 0 && queue.len() > 0 && t-queue.oldest() >= p.Wait
	}

	resolveShed := func(req int, t time.Duration) {
		st := &states[req]
		st.done = true
		doneCount++
		e.stats.ShedRequests++
		rq := reqs[req]
		res.Completions[req] = Completion{
			Agent: rq.Agent, Arrival: rq.Arrival, Done: t,
			Outcome: OutcomeShed, Retries: st.retries, Hedged: st.everHedged,
		}
		if e.sink != nil {
			e.emitShed(int64(req)+1, t, rq.Priority)
		}
	}

	// enqueue admits one non-hedge attempt (original or retry) at time t,
	// applying the shed policy first. It opens a new wave: the hedge timer
	// (if hedging is on) arms against this attempt's entry.
	enqueue := func(req int, t time.Duration) {
		if shedNow(t, reqs[req].Priority) {
			resolveShed(req, t)
			return
		}
		st := &states[req]
		st.wave++
		st.hedged = false
		st.live++
		attempts = append(attempts, rAttempt{req: req, arrival: t})
		queueAttempt(len(attempts) - 1)
		if e.cfg.Hedge.enabled() {
			timers = append(timers, rTimer{
				at: t + e.cfg.Hedge.Delay, seq: timerSeq,
				kind: timerHedge, req: req, wave: st.wave,
			})
			timerSeq++
		}
	}

	// attemptLost handles a request losing its last live attempt at te:
	// schedule a retry while budget remains, otherwise resolve timed-out.
	attemptLost := func(req int, te time.Duration) {
		st := &states[req]
		if st.done || st.live > 0 {
			return
		}
		if e.cfg.Retry.enabled() && st.retries < e.cfg.Retry.Max {
			st.retries++
			e.stats.Retries++
			if st.st == nil {
				st.st = retrySrc.NewStream(fmt.Sprintf("req-%d", req))
			}
			back := e.cfg.Retry.backoff(st.retries-1, st.st)
			timers = append(timers, rTimer{
				at: te + back, seq: timerSeq, kind: timerRetry,
				req: req, wave: st.retries, dur: back,
			})
			timerSeq++
			return
		}
		st.done = true
		doneCount++
		e.stats.TimedOut++
		rq := reqs[req]
		res.Completions[req] = Completion{
			Agent: rq.Agent, Arrival: rq.Arrival, Done: te,
			Outcome: OutcomeTimedOut, Retries: st.retries, Hedged: st.everHedged,
		}
	}

	// timeOutAttempt expires one attempt (already removed from the queue) at
	// te: its batch never launched within the deadline.
	timeOutAttempt := func(ai int, te time.Duration) {
		a := &attempts[ai]
		st := &states[a.req]
		st.live--
		if e.sink != nil {
			e.emitTimeout(int64(a.req)+1, te, reqs[a.req].Deadline)
		}
		attemptLost(a.req, te)
	}

	// resolveServed completes a logical request with attempt ai's batch:
	// winner-only flow accounting, cancellation of still-queued duplicates
	// (in-service duplicates run on as priced waste).
	resolveServed := func(ai int) {
		a := &attempts[ai]
		st := &states[a.req]
		rq := reqs[a.req]
		if st.done {
			return // a sibling already won; this batch's span was pure waste
		}
		st.done = true
		doneCount++
		if a.hedge {
			e.stats.HedgeWins++
		}
		wait := a.start - a.arrival
		e.record(a.service, wait, a.batch, a.cached, a.total)
		e.stats.LatencyHist.Observe(a.end - rq.Arrival)
		res.Completions[a.req] = Completion{
			Agent: rq.Agent, Arrival: rq.Arrival, Start: a.start, Done: a.end,
			QueueWait: wait, BatchSize: a.batch,
			PromptTokens: a.total, CachedTokens: a.cached,
			Retries: st.retries, Hedged: st.everHedged,
		}
		if e.sink != nil {
			e.emitComplete(int64(a.req)+1, rq.Agent, a.ri, a.end, a.end-rq.Arrival, wait, a.batch, a.cached, a.total)
		}
		// Cancel queued duplicates for free; they never reached a replica.
		// live counts queued plus in-service attempts, so 0 means none queue.
		if st.live > 0 {
			st.live -= queue.removeIf(func(q int) bool { return attempts[q].req == a.req })
		}
	}

	shouldLaunch := func() bool {
		if e.cfg.MaxBatch <= 1 || queue.len() >= e.cfg.MaxBatch {
			return true
		}
		if nextArr >= len(order) && len(timers) == 0 {
			return true // nothing else is coming; waiting is pure loss
		}
		return now-queue.oldest() >= e.cfg.MaxWait
	}

	for doneCount < len(reqs) {
		if e.fx != nil {
			e.applyFaults(now)
		}
		e.maybeAutoscale(now)

		// 1. Batch completions due by now, in (end, attempt id) order: the
		// first completion of a request wins it; later ones were waste.
		for {
			best := -1
			for idx, ai := range inflight {
				a := &attempts[ai]
				if a.end > now {
					continue
				}
				if best < 0 || a.end < attempts[inflight[best]].end ||
					(a.end == attempts[inflight[best]].end && ai < inflight[best]) {
					best = idx
				}
			}
			if best < 0 {
				break
			}
			ai := inflight[best]
			inflight = append(inflight[:best], inflight[best+1:]...)
			attempts[ai].inflight = false
			states[attempts[ai].req].live--
			resolveServed(ai)
		}

		// 2. Deadline expiries among queued attempts, in (expiry, id) order.
		if minExpiry <= now {
			expired = expired[:0]
			queue.removeIf(func(ai int) bool {
				if reqs[attempts[ai].req].Deadline > 0 && expiry(ai) <= now {
					expired = append(expired, ai)
					return true
				}
				return false
			})
			slices.SortFunc(expired, func(x, y int) int {
				if c := cmp.Compare(expiry(x), expiry(y)); c != 0 {
					return c
				}
				return cmp.Compare(x, y)
			})
			for _, ai := range expired {
				timeOutAttempt(ai, expiry(ai))
			}
		}

		// 3. Due timers (retry re-entries, hedge issue points), in (at, seq)
		// order.
		for {
			best := -1
			for i := range timers {
				if timers[i].at > now {
					continue
				}
				if best < 0 || timers[i].at < timers[best].at ||
					(timers[i].at == timers[best].at && timers[i].seq < timers[best].seq) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			tm := timers[best]
			timers = append(timers[:best], timers[best+1:]...)
			st := &states[tm.req]
			switch tm.kind {
			case timerRetry:
				if st.done {
					break
				}
				if e.sink != nil {
					e.emitRetry(int64(tm.req)+1, tm.at, tm.dur, tm.wave)
				}
				enqueue(tm.req, tm.at)
			case timerHedge:
				// Stale guards: the request resolved, moved to a newer wave,
				// already hedged this wave, or has no live attempt to hedge.
				if st.done || tm.wave != st.wave || st.hedged || st.live < 1 {
					break
				}
				// Hedging into an overloaded queue is counterproductive: the
				// shed policy suppresses the duplicate silently (the original
				// attempt is unaffected).
				if shedNow(tm.at, reqs[tm.req].Priority) {
					break
				}
				st.hedged, st.everHedged = true, true
				st.live++
				e.stats.HedgesIssued++
				attempts = append(attempts, rAttempt{req: tm.req, hedge: true, arrival: tm.at})
				queueAttempt(len(attempts) - 1)
				if e.sink != nil {
					e.emitHedge(int64(tm.req)+1, tm.at)
				}
			}
		}

		// 4. Original arrivals.
		for nextArr < len(order) && reqs[order[nextArr]].Arrival <= now {
			qi := order[nextArr]
			nextArr++
			enqueue(qi, reqs[qi].Arrival)
		}

		// 5. Launch batches while an idle replica and the policy allow. A
		// batch never carries two attempts of the same request (racing your
		// own duplicate inside one batch is pure waste); skipped duplicates
		// stay queued.
		for queue.len() > 0 && shouldLaunch() {
			r := e.routeIdle(now, keys[attempts[queue.front()].req])
			if r == nil {
				break
			}
			batch = batch[:0]
			skipped := false
			queue.walk(func(ai int) bool {
				for _, bi := range batch {
					if attempts[bi].req == attempts[ai].req {
						skipped = true
						return true
					}
				}
				batch = append(batch, ai)
				return len(batch) < e.cfg.MaxBatch
			})
			n := len(batch)
			if skipped {
				queue.removeIf(func(ai int) bool { return slices.Contains(batch, ai) })
			} else {
				batch = queue.popN(batch[:0], n) // no skips: the batch is the queue's first n
			}

			bkeys, outs := e.batchScratch(n)
			for bi, ai := range batch {
				bkeys[bi], outs[bi] = keys[attempts[ai].req], reqs[attempts[ai].req].OutTokens
			}
			ri := e.rindex(r)
			var evBefore int
			if e.sink != nil {
				e.emitRoute(int64(attempts[batch[0]].req)+1, now, r, bkeys[0])
				_, _, evBefore = r.cache.stats()
			}
			service, members, totalEff, maxOut := e.admitBatch(r, bkeys, outs)
			if e.fx != nil {
				if f := e.stragFactor(ri, now); f > 1 {
					service = time.Duration(float64(service) * f)
				}
				if w, hit := e.crashIn(ri, now, now+service); hit {
					// The crash kills the whole batch: revert the replica's
					// served count, charge the occupancy burned until the
					// crash, and put every member back into admission at the
					// crash instant — except members whose deadline has
					// already passed, which time out right there.
					r.requests -= n
					e.busyAcc += w.start - now
					e.crashReplica(r, ri, w, n)
					for _, ai := range batch {
						a := &attempts[ai]
						if d := reqs[a.req].Deadline; d > 0 && w.start >= a.arrival+d {
							timeOutAttempt(ai, w.start)
							continue
						}
						queueAttempt(ai)
					}
					continue
				}
			}
			end := now + service
			e.sealFrontier(r)
			r.startBatch(now, end, n, totalEff, maxOut, service)
			e.busyAcc += service
			res.Batches++
			if e.sink != nil {
				for bi, ai := range batch {
					e.emitCache(int64(attempts[ai].req)+1, now, ri, members[bi].cached, members[bi].total)
				}
				if _, _, evAfter := r.cache.stats(); evAfter > evBefore {
					e.emitEvict(now, ri, evAfter-evBefore)
				}
				e.emitBatchStart(now, ri, n, totalEff, maxOut, service)
			}
			for bi, ai := range batch {
				a := &attempts[ai]
				a.inflight = true
				a.start, a.end, a.service = now, end, service
				a.batch, a.cached, a.total = n, members[bi].cached, members[bi].total
				a.ri = ri
				inflight = append(inflight, ai)
			}
			if end > res.Makespan {
				res.Makespan = end
			}
		}
		if doneCount >= len(reqs) {
			break
		}

		// 6. Advance virtual time to the next event: an arrival, a timer, a
		// queued attempt's deadline, a batch completing, a replica freeing
		// (or restarting), a batching-window expiry, an autoscale tick, or
		// an idle replica's scheduled crash.
		next := time.Duration(1<<63 - 1)
		if nextArr < len(order) {
			if t := reqs[order[nextArr]].Arrival; t < next {
				next = t
			}
		}
		for i := range timers {
			if t := timers[i].at; t > now && t < next {
				next = t
			}
		}
		minExpiry = time.Duration(1<<63 - 1)
		if hasDeadlines {
			queue.walk(func(ai int) bool {
				if reqs[attempts[ai].req].Deadline > 0 {
					t := expiry(ai)
					minExpiry = min(minExpiry, t)
					if t > now && t < next {
						next = t
					}
				}
				return true
			})
		}
		for _, ai := range inflight {
			if t := attempts[ai].end; t > now && t < next {
				next = t
			}
		}
		if queue.len() > 0 && e.cfg.MaxBatch > 1 {
			if t := queue.oldest() + e.cfg.MaxWait; t > now && t < next {
				next = t
			}
		}
		for ri := range e.replicas[:e.active] {
			if t := e.replicas[ri].freeAt; t > now && t < next {
				next = t
			}
		}
		if e.cfg.Autoscale.enabled() && e.asNext > now && e.asNext < next {
			next = e.asNext
		}
		if t, ok := e.nextFault(now); ok && t < next {
			next = t
		}
		if next <= now {
			next = now + time.Nanosecond // safety: time must advance
		}
		now = next
	}
	if e.fx != nil {
		// Drain downtime accounting through the end of the run: windows
		// opening after the last served batch still count as downtime
		// inside the horizon actually simulated.
		e.applyFaults(res.Makespan)
	}
	e.finishAutoscale(res.Makespan)
	res.Stats = e.Stats()
	return res
}
