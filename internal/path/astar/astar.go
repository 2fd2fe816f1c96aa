// Package astar implements A* grid path planning — the low-level execution
// substrate used by CoELA, COMBO and COHERENT (paper Table II).
//
// The planner reports the number of expanded nodes; the execution module
// converts that to simulated compute latency, which is how low-level
// planning shows up in the paper's latency breakdowns (Fig. 2a).
package astar

import (
	"sync"

	"embench/internal/world"
)

// Result is the outcome of a planning query.
type Result struct {
	Path     []world.Cell // start..goal inclusive; nil when not Found
	Expanded int          // nodes popped from the open list
	Found    bool
}

// Plan searches for a shortest 4-connected path from start to goal on g.
// A blocked or out-of-bounds endpoint yields Found=false. Planning from a
// cell to itself returns a single-cell path.
//
// The search state lives in grid-indexed arrays of a pooled workspace, so
// a query allocates only the returned path.
func Plan(g *world.Grid, start, goal world.Cell) Result {
	if g.Blocked(start) || g.Blocked(goal) {
		return Result{}
	}
	if start == goal {
		return Result{Path: []world.Cell{start}, Expanded: 1, Found: true}
	}
	ws := pool.Get().(*workspace)
	defer pool.Put(ws)
	ws.reset(g.W * g.H)
	w := g.W
	si, gi := int32(start.Y*w+start.X), int32(goal.Y*w+goal.X)
	ws.seen[si] = ws.epoch
	ws.g[si] = 0
	ws.push(item{cell: si, f: int32(world.Manhattan(start, goal))})
	expanded := 0

	for len(ws.open) > 0 {
		cur := ws.pop()
		if ws.closed[cur.cell] == ws.epoch {
			continue
		}
		ws.closed[cur.cell] = ws.epoch
		expanded++
		if cur.cell == gi {
			return Result{Path: ws.path(si, gi, w), Expanded: expanded, Found: true}
		}
		c := world.C(int(cur.cell)%w, int(cur.cell)/w)
		tentative := ws.g[cur.cell] + 1
		// Neighbors in Grid.Neighbors4's order: push order decides ties.
		for _, d := range world.Dirs4 {
			n := c.Add(d.X, d.Y)
			if g.Blocked(n) {
				continue
			}
			ni := int32(n.Y*w + n.X)
			if ws.closed[ni] == ws.epoch {
				continue
			}
			if ws.seen[ni] != ws.epoch || tentative < ws.g[ni] {
				ws.seen[ni] = ws.epoch
				ws.g[ni] = tentative
				ws.parent[ni] = cur.cell
				ws.push(item{cell: ni, f: tentative + int32(world.Manhattan(n, goal)), g: tentative})
			}
		}
	}
	return Result{Expanded: expanded}
}

// pool recycles workspaces across queries and goroutines.
var pool = sync.Pool{New: func() any { return new(workspace) }}

// workspace is one query's search state, indexed by cell (y*W+x). A cell's
// g and parent entries are valid only while seen[cell] equals the current
// epoch, and closed[cell] == epoch marks it expanded, so starting a query
// is an epoch bump rather than a clear.
type workspace struct {
	epoch        uint32
	seen, closed []uint32
	g, parent    []int32
	open         []item
}

// reset readies the workspace for a query over n cells.
func (ws *workspace) reset(n int) {
	if len(ws.seen) < n {
		ws.seen = make([]uint32, n)
		ws.closed = make([]uint32, n)
		ws.g = make([]int32, n)
		ws.parent = make([]int32, n)
		ws.epoch = 0
	}
	ws.epoch++
	if ws.epoch == 0 { // wrapped: stale stamps could collide, so clear them
		clear(ws.seen)
		clear(ws.closed)
		ws.epoch = 1
	}
	ws.open = ws.open[:0]
}

// path walks parent links back from goal and returns start..goal.
func (ws *workspace) path(start, goal int32, w int) []world.Cell {
	n := 1
	for c := goal; c != start; c = ws.parent[c] {
		n++
	}
	out := make([]world.Cell, n)
	for c := goal; ; c = ws.parent[c] {
		n--
		out[n] = world.C(int(c)%w, int(c)/w)
		if c == start {
			return out
		}
	}
}

// item is a prioritized open-list entry.
type item struct {
	cell int32
	f, g int32
}

// less orders the open list on f, breaking ties toward larger g (deeper
// nodes), the standard A* tie-break that reduces re-expansion.
func (a item) less(b item) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.g > b.g
}

// push and pop are container/heap's Push and Pop on ws.open, sift for
// sift, so the pop order — ties included — is the heap package's.
func (ws *workspace) push(x item) {
	ws.open = append(ws.open, x)
	h := ws.open
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !h[j].less(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (ws *workspace) pop() item {
	h := ws.open
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].less(h[j1]) {
			j = j2 // right child
		}
		if !h[j].less(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	x := h[n]
	ws.open = h[:n]
	return x
}
