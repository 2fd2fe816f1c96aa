package astar

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"embench/internal/world"
)

func TestTrivialPath(t *testing.T) {
	g := world.NewGrid(5, 5)
	res := Plan(g, world.C(0, 0), world.C(0, 0))
	if !res.Found || len(res.Path) != 1 {
		t.Fatalf("self-path = %+v", res)
	}
}

func TestStraightLine(t *testing.T) {
	g := world.NewGrid(10, 10)
	res := Plan(g, world.C(0, 0), world.C(5, 0))
	if !res.Found {
		t.Fatal("no path on empty grid")
	}
	if len(res.Path) != 6 {
		t.Fatalf("path length = %d, want 6 cells", len(res.Path))
	}
}

func TestOptimalLengthOnEmptyGrid(t *testing.T) {
	g := world.NewGrid(20, 20)
	start, goal := world.C(2, 3), world.C(15, 11)
	res := Plan(g, start, goal)
	want := world.Manhattan(start, goal) + 1
	if !res.Found || len(res.Path) != want {
		t.Fatalf("path cells = %d, want %d (optimal)", len(res.Path), want)
	}
}

func TestDetour(t *testing.T) {
	g := world.NewGrid(10, 10)
	// Vertical wall with a gap at the top.
	for y := 0; y < 9; y++ {
		g.SetBlocked(world.C(5, y), true)
	}
	res := Plan(g, world.C(0, 0), world.C(9, 0))
	if !res.Found {
		t.Fatal("path exists through the gap")
	}
	if len(res.Path) <= 10 {
		t.Fatalf("detour should be longer than straight line: %d", len(res.Path))
	}
	validatePath(t, g, res.Path, world.C(0, 0), world.C(9, 0))
}

func TestUnreachable(t *testing.T) {
	g := world.NewGrid(10, 10)
	for y := 0; y < 10; y++ {
		g.SetBlocked(world.C(5, y), true)
	}
	res := Plan(g, world.C(0, 0), world.C(9, 0))
	if res.Found {
		t.Fatal("found path through solid wall")
	}
	if res.Expanded == 0 {
		t.Fatal("search should have expanded nodes before giving up")
	}
}

func TestBlockedEndpoints(t *testing.T) {
	g := world.NewGrid(5, 5)
	g.SetBlocked(world.C(0, 0), true)
	if Plan(g, world.C(0, 0), world.C(4, 4)).Found {
		t.Fatal("blocked start should fail")
	}
	if Plan(g, world.C(4, 4), world.C(0, 0)).Found {
		t.Fatal("blocked goal should fail")
	}
}

func validatePath(t *testing.T, g *world.Grid, path []world.Cell, start, goal world.Cell) {
	t.Helper()
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	if path[0] != start || path[len(path)-1] != goal {
		t.Fatalf("endpoints wrong: %v..%v", path[0], path[len(path)-1])
	}
	for i, c := range path {
		if g.Blocked(c) {
			t.Fatalf("path passes blocked cell %v", c)
		}
		if i > 0 && world.Manhattan(path[i-1], c) != 1 {
			t.Fatalf("non-adjacent step %v -> %v", path[i-1], c)
		}
	}
}

func TestRandomGridsProperty(t *testing.T) {
	// Property: on random grids, any found path is valid, connected and
	// obstacle-free; when a path is found its length is at least the
	// Manhattan lower bound.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := world.NewGrid(15, 15)
		for i := 0; i < 40; i++ {
			g.SetBlocked(world.C(r.Intn(15), r.Intn(15)), true)
		}
		start := world.C(r.Intn(15), r.Intn(15))
		goal := world.C(r.Intn(15), r.Intn(15))
		res := Plan(g, start, goal)
		if !res.Found {
			return true
		}
		if path := res.Path; len(path) < world.Manhattan(start, goal)+1 {
			return false
		}
		if res.Path[0] != start || res.Path[len(res.Path)-1] != goal {
			return false
		}
		for i, c := range res.Path {
			if g.Blocked(c) {
				return false
			}
			if i > 0 && world.Manhattan(res.Path[i-1], c) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExpandedGrowsWithDistance(t *testing.T) {
	g := world.NewGrid(40, 40)
	near := Plan(g, world.C(0, 0), world.C(2, 0))
	far := Plan(g, world.C(0, 0), world.C(39, 39))
	if far.Expanded <= near.Expanded {
		t.Fatalf("expanded near=%d far=%d", near.Expanded, far.Expanded)
	}
}

func BenchmarkPlanOpenGrid(b *testing.B) {
	g := world.NewGrid(50, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Plan(g, world.C(0, 0), world.C(49, 49))
	}
}

func BenchmarkPlanMaze(b *testing.B) {
	g := world.NewGrid(50, 50)
	for x := 5; x < 50; x += 10 {
		for y := 0; y < 45; y++ {
			g.SetBlocked(world.C(x, y), true)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Plan(g, world.C(0, 0), world.C(49, 49))
	}
}

// TestPlanMatchesMapOracle pins the dense planner to the map-based seed
// planner: identical paths, expansion counts and Found flags on random
// grids of varied size and density, with endpoints that may be blocked,
// out of bounds, equal or walled off from each other.
func TestPlanMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	unreachable, found := 0, 0
	for q := 0; q < 12000; q++ {
		w, h := 1+r.Intn(24), 1+r.Intn(24)
		g := world.NewGrid(w, h)
		density := r.Float64() * 0.45
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if r.Float64() < density {
					g.SetBlocked(world.C(x, y), true)
				}
			}
		}
		if q%4 == 0 && w > 2 { // a full wall makes many queries unreachable
			wx := 1 + r.Intn(w-2)
			for y := 0; y < h; y++ {
				g.SetBlocked(world.C(wx, y), true)
			}
		}
		// Endpoints range one cell past each border to cover out-of-bounds.
		start := world.C(r.Intn(w+2)-1, r.Intn(h+2)-1)
		goal := world.C(r.Intn(w+2)-1, r.Intn(h+2)-1)
		if q%11 == 0 {
			goal = start
		}
		got, want := Plan(g, start, goal), planMap(g, start, goal)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d on %dx%d, %v -> %v:\n got %+v\nwant %+v", q, w, h, start, goal, got, want)
		}
		if want.Found {
			found++
		} else if want.Expanded > 0 {
			unreachable++
		}
	}
	if found < 1000 || unreachable < 500 {
		t.Fatalf("weak coverage: %d found, %d unreachable after search", found, unreachable)
	}
}

func TestPlanEpochWrapClearsStamps(t *testing.T) {
	g := world.NewGrid(6, 6)
	g.BlockRect(3, 0, 3, 4)
	ws := &workspace{}
	ws.reset(36)
	ws.epoch = ^uint32(0) - 1 // two resets from wrapping
	for i := range ws.seen {
		ws.seen[i], ws.closed[i] = 1, 1
	}
	ws.reset(36)
	ws.reset(36)
	if ws.epoch != 1 || ws.seen[0] != 0 || ws.closed[35] != 0 {
		t.Fatalf("after wrap: epoch %d, seen[0] %d, closed[35] %d", ws.epoch, ws.seen[0], ws.closed[35])
	}
	pool.Put(ws)
	want := planMap(g, world.C(0, 0), world.C(5, 0))
	if got := Plan(g, world.C(0, 0), world.C(5, 0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// twoRooms is a 25x25 grid split by a wall with one door.
func twoRooms() *world.Grid {
	g := world.NewGrid(25, 25)
	g.BlockRect(12, 0, 12, 24)
	g.SetBlocked(world.C(12, 18), false)
	return g
}

// raceEnabled is set in -race builds, where sync.Pool drops pooled items at
// random, so the workspace is rebuilt on some queries.
var raceEnabled bool

func TestPlanAllocatesOnlyThePath(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := twoRooms()
	start, goal := world.C(2, 3), world.C(22, 4)
	if !Plan(g, start, goal).Found {
		t.Fatal("two-room query must succeed")
	}
	if n := testing.AllocsPerRun(200, func() { Plan(g, start, goal) }); n > 1 {
		t.Fatalf("Plan allocs/run = %v, want at most 1 (the returned path)", n)
	}
}

// planMap is the seed planner, kept as the oracle for Plan: map-keyed
// g-scores, parents and closed set over a container/heap open list.
func planMap(g *world.Grid, start, goal world.Cell) Result {
	if g.Blocked(start) || g.Blocked(goal) {
		return Result{}
	}
	if start == goal {
		return Result{Path: []world.Cell{start}, Expanded: 1, Found: true}
	}
	gScore := map[world.Cell]int{start: 0}
	parent := map[world.Cell]world.Cell{}
	open := &oraclePQ{}
	heap.Init(open)
	heap.Push(open, oracleItem{cell: start, f: world.Manhattan(start, goal)})
	closed := map[world.Cell]bool{}
	expanded := 0
	buf := make([]world.Cell, 0, 4)

	for open.Len() > 0 {
		cur := heap.Pop(open).(oracleItem)
		if closed[cur.cell] {
			continue
		}
		closed[cur.cell] = true
		expanded++
		if cur.cell == goal {
			var rev []world.Cell
			for c := goal; ; c = parent[c] {
				rev = append(rev, c)
				if c == start {
					break
				}
			}
			path := make([]world.Cell, len(rev))
			for i, c := range rev {
				path[len(rev)-1-i] = c
			}
			return Result{Path: path, Expanded: expanded, Found: true}
		}
		buf = buf[:0]
		for _, n := range g.Neighbors4(cur.cell, buf) {
			if closed[n] {
				continue
			}
			tentative := gScore[cur.cell] + 1
			if old, ok := gScore[n]; !ok || tentative < old {
				gScore[n] = tentative
				parent[n] = cur.cell
				heap.Push(open, oracleItem{cell: n, f: tentative + world.Manhattan(n, goal), g: tentative})
			}
		}
	}
	return Result{Expanded: expanded}
}

type oracleItem struct {
	cell world.Cell
	f, g int
}

type oraclePQ []oracleItem

func (q oraclePQ) Len() int { return len(q) }
func (q oraclePQ) Less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	return q[i].g > q[j].g
}
func (q oraclePQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oraclePQ) Push(x any)   { *q = append(*q, x.(oracleItem)) }
func (q *oraclePQ) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
