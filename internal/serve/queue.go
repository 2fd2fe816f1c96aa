package serve

import (
	"sort"
	"time"
)

// admissionQueue is THE admission-queue order of both replay loops
// (replayOn and replayResilient): entries leave in (priority, arrival, id)
// order — lower Priority first, FIFO by arrival within a class, and the id
// (a request index or an attempt id) breaking arrival ties. It keeps one
// FIFO per priority class, classes in ascending priority, so the order is
// maintained without ever sorting the queue:
//
//   - push appends to its class when the entry sorts after the class tail —
//     always, for arrivals fed in arrival order — and otherwise
//     binary-inserts within the class (a crash requeue re-entering attempts
//     with their original arrival): O(#classes) plus O(log n + shift) on
//     that rare path;
//   - front, popN and oldest touch only the class heads:
//     O(#classes + popped);
//   - walk and removeIf are in-order scans: O(Q).
//
// A class's buffer is reused once drained, so a warmed queue pushes and
// pops without allocating.
type admissionQueue struct {
	classes []queueClass // ascending priority; drained classes stay for reuse
	n       int          // queued entries across all classes
}

// queueEntry is one queued id with its admission arrival.
type queueEntry struct {
	arr time.Duration
	id  int
}

// before is the within-class order: arrival, then id.
func (a queueEntry) before(b queueEntry) bool {
	return a.arr < b.arr || (a.arr == b.arr && a.id < b.id)
}

// queueClass is one priority's FIFO: live entries are buf[head:], sorted by
// (arrival, id).
type queueClass struct {
	prio int
	buf  []queueEntry
	head int
}

func (q *admissionQueue) len() int { return q.n }

// class returns prio's FIFO, creating it in priority position if new.
func (q *admissionQueue) class(prio int) *queueClass {
	i := 0
	for i < len(q.classes) && q.classes[i].prio < prio {
		i++
	}
	if i == len(q.classes) || q.classes[i].prio != prio {
		q.classes = append(q.classes, queueClass{})
		copy(q.classes[i+1:], q.classes[i:])
		q.classes[i] = queueClass{prio: prio}
	}
	return &q.classes[i]
}

// push queues id with the given priority and admission arrival.
func (q *admissionQueue) push(prio int, arr time.Duration, id int) {
	c := q.class(prio)
	e := queueEntry{arr: arr, id: id}
	q.n++
	if k := len(c.buf); k == c.head || !e.before(c.buf[k-1]) {
		if k == cap(c.buf) && c.head > 0 && c.head >= k/2 {
			// Reclaim the popped prefix instead of growing the buffer.
			k = copy(c.buf, c.buf[c.head:])
			c.buf, c.head = c.buf[:k], 0
		}
		c.buf = append(c.buf, e)
		return
	}
	live := c.buf[c.head:]
	i := c.head + sort.Search(len(live), func(i int) bool { return e.before(live[i]) })
	c.buf = append(c.buf, queueEntry{})
	copy(c.buf[i+1:], c.buf[i:])
	c.buf[i] = e
}

// settle resets a drained class so its buffer is reused from the start.
func (c *queueClass) settle() {
	if c.head == len(c.buf) {
		c.buf, c.head = c.buf[:0], 0
	}
}

// front returns the first id in queue order, or -1 if the queue is empty.
func (q *admissionQueue) front() int {
	for i := range q.classes {
		if c := &q.classes[i]; c.head < len(c.buf) {
			return c.buf[c.head].id
		}
	}
	return -1
}

// popN removes up to n ids from the front and appends them to dst in
// queue order.
func (q *admissionQueue) popN(dst []int, n int) []int {
	for i := range q.classes {
		if n <= 0 {
			break
		}
		c := &q.classes[i]
		for ; n > 0 && c.head < len(c.buf); n-- {
			dst = append(dst, c.buf[c.head].id)
			c.head++
			q.n--
		}
		c.settle()
	}
	return dst
}

// oldest returns the earliest queued arrival: each class is sorted by
// arrival, so it is the minimum over the class heads. The queue must be
// non-empty.
func (q *admissionQueue) oldest() time.Duration {
	oldest, found := time.Duration(0), false
	for i := range q.classes {
		c := &q.classes[i]
		if c.head < len(c.buf) && (!found || c.buf[c.head].arr < oldest) {
			oldest, found = c.buf[c.head].arr, true
		}
	}
	return oldest
}

// walk calls fn on each queued id in queue order until fn returns false.
func (q *admissionQueue) walk(fn func(id int) bool) {
	for i := range q.classes {
		c := &q.classes[i]
		for _, e := range c.buf[c.head:] {
			if !fn(e.id) {
				return
			}
		}
	}
}

// removeIf deletes every queued id for which drop returns true, keeping
// the rest in order, and returns how many it removed. drop sees the ids in
// queue order.
func (q *admissionQueue) removeIf(drop func(id int) bool) int {
	removed := 0
	for i := range q.classes {
		c := &q.classes[i]
		w := c.head
		for _, e := range c.buf[c.head:] {
			if drop(e.id) {
				removed++
				continue
			}
			c.buf[w] = e
			w++
		}
		c.buf = c.buf[:w]
		c.settle()
	}
	q.n -= removed
	return removed
}
