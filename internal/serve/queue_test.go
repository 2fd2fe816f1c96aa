package serve

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// refQueue is the seed replay loops' admission discipline, kept as the
// reference model for admissionQueue: append, then re-sort the whole queue
// by (priority, arrival, id) with sort.SliceStable; the oldest arrival is a
// linear scan.
type refQueue struct{ es []refEntry }

type refEntry struct {
	prio int
	arr  time.Duration
	id   int
}

func (r *refQueue) push(prio int, arr time.Duration, id int) {
	r.es = append(r.es, refEntry{prio, arr, id})
	sort.SliceStable(r.es, func(a, b int) bool {
		ea, eb := r.es[a], r.es[b]
		if ea.prio != eb.prio {
			return ea.prio < eb.prio
		}
		if ea.arr != eb.arr {
			return ea.arr < eb.arr
		}
		return ea.id < eb.id
	})
}

func (r *refQueue) popN(n int) []int {
	if n > len(r.es) {
		n = len(r.es)
	}
	var out []int
	for _, e := range r.es[:n] {
		out = append(out, e.id)
	}
	r.es = append([]refEntry(nil), r.es[n:]...)
	return out
}

func (r *refQueue) oldest() time.Duration {
	oldest := r.es[0].arr
	for _, e := range r.es[1:] {
		if e.arr < oldest {
			oldest = e.arr
		}
	}
	return oldest
}

func (r *refQueue) removeIf(drop func(id int) bool) int {
	rest := r.es[:0]
	for _, e := range r.es {
		if !drop(e.id) {
			rest = append(rest, e)
		}
	}
	n := len(r.es) - len(rest)
	r.es = rest
	return n
}

func (r *refQueue) ids() []int {
	var out []int
	for _, e := range r.es {
		out = append(out, e.id)
	}
	return out
}

// queueIDs lists the queue's ids in order through walk.
func queueIDs(q *admissionQueue) []int {
	var out []int
	q.walk(func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// TestAdmissionQueueMatchesSortedReference drives the admission queue and
// the sort-based reference through the same random sequences of in-order
// pushes, out-of-order inserts (crash requeues re-entering with their
// original arrival, and fresh ids with old arrivals), popN, removeIf, an
// early-stopping walk and oldest, and requires identical contents and
// results after every step.
func TestAdmissionQueueMatchesSortedReference(t *testing.T) {
	prioSets := [][]int{{0}, {0, 1}, {0, 1, 2}, {-3, 0, 7, 9}}
	for seed := int64(0); seed < 300; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		prios := prioSets[rnd.Intn(len(prioSets))]
		grid := time.Duration(1+rnd.Intn(3)) * time.Millisecond // coarse grids collide arrivals
		var (
			q      admissionQueue
			ref    refQueue
			popped []refEntry // entries a crash could requeue
			clock  time.Duration
			nextID int
		)
		for step := 0; step < 400; step++ {
			var what string
			switch op := rnd.Intn(20); {
			case op < 8:
				what = "push"
				clock += time.Duration(rnd.Intn(3)) * grid
				e := refEntry{prios[rnd.Intn(len(prios))], clock, nextID}
				nextID++
				q.push(e.prio, e.arr, e.id)
				ref.push(e.prio, e.arr, e.id)
			case op < 10:
				what = "insert"
				e := refEntry{prios[rnd.Intn(len(prios))], time.Duration(rnd.Int63n(int64(clock)+1)) / grid * grid, nextID}
				if len(popped) > 0 && rnd.Intn(2) == 0 {
					k := rnd.Intn(len(popped))
					e = popped[k]
					popped = append(popped[:k], popped[k+1:]...)
				} else {
					nextID++
				}
				q.push(e.prio, e.arr, e.id)
				ref.push(e.prio, e.arr, e.id)
			case op < 15:
				what = "popN"
				n := 1 + rnd.Intn(8)
				byID := map[int]refEntry{}
				for _, e := range ref.es {
					byID[e.id] = e
				}
				got, want := q.popN(nil, n), ref.popN(n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: popN(%d) = %v, reference %v", seed, step, n, got, want)
				}
				for _, id := range got {
					popped = append(popped, byID[id])
				}
			case op < 17:
				what = "removeIf"
				mod := 2 + rnd.Intn(5)
				var seenQ, seenRef []int
				nq := q.removeIf(func(id int) bool { seenQ = append(seenQ, id); return id%mod == 0 })
				nr := ref.removeIf(func(id int) bool { seenRef = append(seenRef, id); return id%mod == 0 })
				if nq != nr || !reflect.DeepEqual(seenQ, seenRef) {
					t.Fatalf("seed %d step %d: removeIf removed %d visiting %v, reference %d visiting %v",
						seed, step, nq, seenQ, nr, seenRef)
				}
			default:
				what = "walk"
				stop := 1 + rnd.Intn(10)
				var got []int
				q.walk(func(id int) bool {
					got = append(got, id)
					return len(got) < stop
				})
				want := ref.ids()
				if len(want) > stop {
					want = want[:stop]
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: walk(stop %d) = %v, reference %v", seed, step, stop, got, want)
				}
			}
			if got, want := queueIDs(&q), ref.ids(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): contents %v, reference %v", seed, step, what, got, want)
			}
			if q.len() != len(ref.es) {
				t.Fatalf("seed %d step %d (%s): len %d, reference %d", seed, step, what, q.len(), len(ref.es))
			}
			if len(ref.es) == 0 {
				if q.front() != -1 {
					t.Fatalf("seed %d step %d: front of empty queue = %d", seed, step, q.front())
				}
				continue
			}
			if q.front() != ref.es[0].id || q.oldest() != ref.oldest() {
				t.Fatalf("seed %d step %d (%s): front/oldest %d/%v, reference %d/%v",
					seed, step, what, q.front(), q.oldest(), ref.es[0].id, ref.oldest())
			}
		}
	}
}

// TestAdmissionQueueSteadyStateZeroAllocs pins the reuse contract: once a
// queue's class buffers have grown to the working depth, pushing and
// popping (with front, oldest and walk) allocate nothing.
func TestAdmissionQueueSteadyStateZeroAllocs(t *testing.T) {
	var q admissionQueue
	var batch []int
	id, arr := 0, time.Duration(0)
	push := func(n int) {
		for ; n > 0; n-- {
			q.push(id%3, arr, id)
			id++
			arr += time.Millisecond
		}
	}
	step := func() {
		push(8)
		_ = q.front()
		_ = q.oldest()
		q.walk(func(int) bool { return true })
		batch = q.popN(batch[:0], 8)
	}
	push(64)
	for i := 0; i < 1000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per step, want 0", allocs)
	}
}
