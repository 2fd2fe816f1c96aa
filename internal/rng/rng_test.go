package rng

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
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

func BenchmarkNewStream(b *testing.B) {
	src := New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.NewStream("agent0/sense")
	}
}
