package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := New(42).Stream("planner")
	b := New(42).Stream("planner")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same-name streams diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	src := New(42)
	a := src.Stream("planner")
	b := src.Stream("comms")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look correlated: %d/64 equal draws", same)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1).Stream("x")
	b := New(2).Stream("x")
	diff := false
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSubNamespacing(t *testing.T) {
	root := New(7)
	e1 := root.Sub("episode-1").Stream("planner")
	e2 := root.Sub("episode-2").Stream("planner")
	if e1.Int63() == e2.Int63() && e1.Int63() == e2.Int63() {
		t.Fatal("sub-sources did not namespace streams")
	}
	// Sub is itself deterministic.
	x := root.Sub("episode-1").Stream("planner").Int63()
	y := New(7).Sub("episode-1").Stream("planner").Int63()
	if x != y {
		t.Fatal("Sub not deterministic across Source instances")
	}
}

func TestBernoulliBounds(t *testing.T) {
	st := New(9).NewStream("b")
	for i := 0; i < 100; i++ {
		if st.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !st.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	st := New(11).NewStream("rate")
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if st.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("Bernoulli(0.3) empirical rate = %.3f, want ≈0.30", rate)
	}
}

func TestRangeProperty(t *testing.T) {
	st := New(13).NewStream("range")
	f := func(a, b uint8) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := st.Range(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterBounds(t *testing.T) {
	st := New(17).NewStream("jit")
	for i := 0; i < 1000; i++ {
		v := st.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
}

// eagerSeed is the seed derivation before streams became lazy: FNV-1a over
// fmt's rendering of "<seed>/<name>".
func eagerSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return h.Sum64()
}

var oracleNames = []string{"", "x", "planner", "agent3/sense", "episode-12", "central/refl", "ünïcode/名前", "a/b/c/d/e/f/g/h/i/j/k/l/m/n/o/p/q/r/s/t/u/v/w/x/y/z"}

func TestDeriveMatchesFmtHash(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 32, ^uint64(0), 0x9e3779b97f4a7c15} {
		src := New(seed)
		for _, name := range oracleNames {
			want := eagerSeed(seed, name)
			if got := src.Sub(name).Seed(); got != want {
				t.Fatalf("Sub(%q) seed %d: got %d, want %d", name, seed, got, want)
			}
			if got := src.Stream(name).Int63(); got != rand.New(rand.NewSource(int64(want))).Int63() {
				t.Fatalf("Stream(%q) seed %d: first draw differs", name, seed)
			}
		}
	}
}

// TestLazyStreamMatchesEager draws every rand.Rand method the suite uses,
// interleaved, from a lazy stream and from an eagerly seeded rand.Rand.
func TestLazyStreamMatchesEager(t *testing.T) {
	for _, seed := range []uint64{3, 99, 123456789} {
		for _, name := range oracleNames {
			lazy := New(seed).NewStream(name)
			eager := rand.New(rand.NewSource(int64(eagerSeed(seed, name))))
			for i := 0; i < 200; i++ {
				n := 1 + i%37
				if a, b := lazy.Intn(n), eager.Intn(n); a != b {
					t.Fatalf("%q Intn #%d: %d vs %d", name, i, a, b)
				}
				if a, b := lazy.Float64(), eager.Float64(); a != b {
					t.Fatalf("%q Float64 #%d: %v vs %v", name, i, a, b)
				}
				if a, b := lazy.Int63(), eager.Int63(); a != b {
					t.Fatalf("%q Int63 #%d: %d vs %d", name, i, a, b)
				}
				if a, b := lazy.Uint64(), eager.Uint64(); a != b {
					t.Fatalf("%q Uint64 #%d: %d vs %d", name, i, a, b)
				}
				if a, b := lazy.Int63n(int64(n)*1e12), eager.Int63n(int64(n)*1e12); a != b {
					t.Fatalf("%q Int63n #%d: %d vs %d", name, i, a, b)
				}
				if a, b := lazy.Int(), eager.Int(); a != b {
					t.Fatalf("%q Int #%d: %d vs %d", name, i, a, b)
				}
				if a, b := lazy.ExpFloat64(), eager.ExpFloat64(); a != b {
					t.Fatalf("%q ExpFloat64 #%d: %v vs %v", name, i, a, b)
				}
				if a, b := fmt.Sprint(lazy.Perm(n)), fmt.Sprint(eager.Perm(n)); a != b {
					t.Fatalf("%q Perm #%d: %s vs %s", name, i, a, b)
				}
				x, y := make([]int, n), make([]int, n)
				for k := range x {
					x[k], y[k] = k, k
				}
				lazy.Shuffle(n, func(i, j int) { x[i], x[j] = x[j], x[i] })
				eager.Shuffle(n, func(i, j int) { y[i], y[j] = y[j], y[i] })
				if fmt.Sprint(x) != fmt.Sprint(y) {
					t.Fatalf("%q Shuffle #%d: %v vs %v", name, i, x, y)
				}
			}
			// Reseeding restarts the sequence exactly as math/rand's does.
			lazy.Seed(77)
			eager.Seed(77)
			if a, b := lazy.Int63(), eager.Int63(); a != b {
				t.Fatalf("%q after Seed: %d vs %d", name, a, b)
			}
		}
	}
}

// TestNewStreamDefersSourceState pins the lazy seeding: creating a stream
// allocates a few words, and the 4.9 KB generator state appears only at
// the first draw.
func TestNewStreamDefersSourceState(t *testing.T) {
	src := New(5)
	const n = 1000
	keep := make([]*Stream, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = src.NewStream("agent0/sense")
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 256 {
		t.Fatalf("NewStream allocates %d B before any draw, want a few words", per)
	}
	runtime.ReadMemStats(&before)
	for _, s := range keep {
		s.Int63()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per < 4096 {
		t.Fatalf("first draw allocated %d B per stream, want the generator state (~4.9 KB)", per)
	}
	if n := testing.AllocsPerRun(100, func() { src.Sub("episode-3") }); n > 1 {
		t.Fatalf("Sub allocs/run = %v, want 1 (the Source)", n)
	}
}

// runOps replays one draw pattern on lazySource and on rand.NewSource, the
// oracle, and reports the first op whose results differ. Each byte is one
// op; 0xff reseeds both sides from a shared draw, so a random pattern
// reseeds rarely and mostly runs on past the 607th draw, where every
// register entry is built and draws take the plain path.
func runOps(seed int64, ops []byte) error {
	lazy := rand.New(&lazySource{seed: seed})
	eager := rand.New(rand.NewSource(seed))
	for i, op := range ops {
		n := 1 + int(op>>3)
		var a, b uint64
		switch {
		case op == 0xff:
			a, b = lazy.Uint64(), eager.Uint64()
			lazy.Seed(int64(a))
			eager.Seed(int64(b))
		case op%8 == 0:
			a, b = uint64(lazy.Int63()), uint64(eager.Int63())
		case op%8 == 1:
			a, b = lazy.Uint64(), eager.Uint64()
		case op%8 == 2:
			a, b = uint64(lazy.Intn(n)), uint64(eager.Intn(n))
		case op%8 == 3:
			a, b = math.Float64bits(lazy.Float64()), math.Float64bits(eager.Float64())
		case op%8 == 4:
			if x, y := lazy.Perm(n), eager.Perm(n); !slices.Equal(x, y) {
				return fmt.Errorf("seed %d op #%d (%#x): lazy Perm %v, rand.NewSource %v", seed, i, op, x, y)
			}
		case op%8 == 5:
			x, y := make([]int, n), make([]int, n)
			for k := range x {
				x[k], y[k] = k, k
			}
			lazy.Shuffle(n, func(i, j int) { x[i], x[j] = x[j], x[i] })
			eager.Shuffle(n, func(i, j int) { y[i], y[j] = y[j], y[i] })
			if !slices.Equal(x, y) {
				return fmt.Errorf("seed %d op #%d (%#x): lazy Shuffle %v, rand.NewSource %v", seed, i, op, x, y)
			}
		case op%8 == 6:
			// Large bounds exercise Int63n's rejection loop.
			a, b = uint64(lazy.Int63n(int64(n)<<56)), uint64(eager.Int63n(int64(n)<<56))
		default:
			a, b = uint64(lazy.Int31n(int32(n))), uint64(eager.Int31n(int32(n)))
		}
		if a != b {
			return fmt.Errorf("seed %d op #%d (%#x): lazy %d, rand.NewSource %d", seed, i, op, a, b)
		}
	}
	return nil
}

// edgeSeeds are the seeds math/rand's normalisation treats specially:
// zero (replaced by 89482311), negatives (wrapped), multiples of 2³¹−1
// (which reduce to zero) and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 89482311, int32max - 1, int32max, -int32max, 2 * int32max, -2 * int32max,
	int32max * int32max, int32max + 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// TestExactSourceMatchesMathRand holds lazySource to rand.NewSource: the
// edge seeds draw well past the 607th draw, where every register entry is
// built, then reseed; 3000 derived seeds each run a random pattern of up to
// 1500 mixed ops.
func TestExactSourceMatchesMathRand(t *testing.T) {
	long := make([]byte, 2500)
	for i := range long {
		long[i] = byte(i % 2) // Int63, Uint64
	}
	long = append(long, 0xff, 0, 1, 0xff, 0)
	for _, seed := range edgeSeeds {
		if err := runOps(seed, long); err != nil {
			t.Fatal(err)
		}
	}
	pick := rand.New(rand.NewSource(2718))
	root := New(5)
	for i := 0; i < 3000; i++ {
		ops := make([]byte, 1+pick.Intn(1500))
		pick.Read(ops)
		if err := runOps(int64(root.Sub(strconv.Itoa(i)).Seed()), ops); err != nil {
			t.Fatal(err)
		}
	}
	src := &lazySource{seed: 42}
	for i := 0; i < rngLen; i++ {
		src.Uint64()
	}
	if src.reg.unbuilt != 0 {
		t.Fatalf("%d entries unbuilt after %d draws, want 0 (the plain path)", src.reg.unbuilt, rngLen)
	}
}

func FuzzExactSource(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(math.MinInt64), []byte{0xff, 0x10, 0x23})
	f.Add(int64(int32max), make([]byte, 700))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if err := runOps(seed, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkStreamDraws times a stream's whole life: creation, then n
// draws. The median stream in the fig2 and fig7 sweeps takes 85 draws; at
// 607 every register entry is built.
func BenchmarkStreamDraws(b *testing.B) {
	src := New(3)
	for _, n := range []int{8, 85, 607, 2000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				st := src.Stream("agent0/sense")
				for k := 0; k < n; k++ {
					sink += st.Int63()
				}
			}
			drawSink = sink
		})
	}
}

var drawSink int64

func BenchmarkNewStream(b *testing.B) {
	src := New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.NewStream("agent0/sense")
	}
}
