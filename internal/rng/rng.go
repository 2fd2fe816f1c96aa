// Package rng provides deterministic, named random-number streams.
//
// Every experiment in the suite derives all of its randomness from a single
// root seed, split into independent sub-streams by name (one per agent, per
// module, per episode). Two runs with the same root seed produce identical
// traces; changing one consumer's draw pattern cannot perturb another
// stream. This is what makes the paper's sweeps (memory capacity, agent
// count, model swap) comparable: the underlying task instances stay fixed.
package rng

import (
	"math/rand"
	"strconv"
)

// Source derives independent sub-streams from a root seed.
type Source struct {
	seed uint64
}

// New returns a stream source rooted at seed.
func New(seed uint64) *Source { return &Source{seed: seed} }

// Seed reports the root seed.
func (s *Source) Seed() uint64 { return s.seed }

// Stream returns a deterministic *rand.Rand for the given name. Repeated
// calls with the same name return fresh generators with identical sequences.
// The stream draws math/rand's exact sequence for that seed, but its
// 4.9 KB state is allocated on the first draw and filled in as draws reach
// it, so a stream never drawn from costs a few words and one drawn a few
// times skips most of math/rand's seeding work.
func (s *Source) Stream(name string) *rand.Rand {
	return rand.New(&lazySource{seed: int64(s.derive(name))})
}

// Sub returns a derived Source, useful for giving each episode its own
// namespace: rng.New(7).Sub("episode-3").Stream("planner").
func (s *Source) Sub(name string) *Source {
	return &Source{seed: s.derive(name)}
}

// derive hashes "<seed>/<name>" with 64-bit FNV-1a.
func (s *Source) derive(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var digits [20]byte
	h := uint64(offset64)
	for _, c := range strconv.AppendUint(digits[:0], s.seed, 10) {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ '/') * prime64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	return h
}

// math/rand's additive lagged-Fibonacci generator: a 607-entry register
// read at two taps 273 apart, seeded from a Lehmer chain mod 2³¹−1.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// seedPowers[j] is 48271^(21+j) mod 2³¹−1. math/rand seeds by walking the
// chain x ← 48271·x mod 2³¹−1 from the normalised seed, skipping 20 values,
// and gives register entry i the chain values at offsets 21+3i, 22+3i and
// 23+3i. The value at offset k is seed·48271^k mod 2³¹−1, so any entry can
// be built on its own from three of these powers.
var seedPowers = func() (p [3 * rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 20; k++ {
		x = x * 48271 % int32max
	}
	for j := range p {
		x = x * 48271 % int32max
		p[j] = x
	}
	return p
}()

// lazySource is rand.NewSource(seed), draw for draw, built lazily: until
// the first draw it holds only the seed, and the register entries are
// computed one at a time, each the first time a draw touches it. A draw
// touches two entries, both walking down the register, so a stream drawn
// n < 607 times builds at most 2n entries instead of all 607.
type lazySource struct {
	seed int64
	reg  *register // nil until the first draw
}

// register is math/rand's generator state plus the set of entries already
// built. Once every entry is built, draws take math/rand's plain path.
type register struct {
	tap, feed int
	x0        uint64 // normalised seed, in [1, 2³¹−1)
	unbuilt   int    // entries no draw has touched yet
	built     [(rngLen + 63) / 64]uint64
	vec       [rngLen]int64
}

// reset seeds the register as rand.Source.Seed does, leaving every entry
// to be built on first touch.
func (r *register) reset(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	r.x0 = uint64(seed)
	r.tap, r.feed = 0, rngLen-rngTap
	r.unbuilt = rngLen
	r.built = [len(r.built)]uint64{}
}

// touch builds entry i from the seed unless a draw already did.
func (r *register) touch(i int) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if r.built[w]&bit != 0 {
		return
	}
	r.built[w] |= bit
	r.unbuilt--
	p := seedPowers[3*i : 3*i+3 : 3*i+3]
	r.vec[i] = int64(r.x0*p[0]%int32max)<<40 ^ int64(r.x0*p[1]%int32max)<<20 ^
		int64(r.x0*p[2]%int32max) ^ rngCooked[i]
}

func (l *lazySource) Uint64() uint64 {
	r := l.reg
	if r == nil {
		r = new(register)
		r.reset(l.seed)
		l.reg = r
	}
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	if r.unbuilt > 0 {
		r.touch(r.feed)
		r.touch(r.tap)
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

func (l *lazySource) Int63() int64 { return int64(l.Uint64() & rngMask) }

func (l *lazySource) Seed(seed int64) {
	l.seed = seed
	if l.reg != nil {
		l.reg.reset(seed)
	}
}

// Stream wraps *rand.Rand with the helpers the suite uses.
type Stream struct {
	*rand.Rand
}

// NewStream returns a helper-wrapped stream for the given name.
func (s *Source) NewStream(name string) *Stream {
	return &Stream{Rand: s.Stream(name)}
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (st *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return st.Float64() < p
}

// Pick returns a uniformly random index in [0,n). It panics if n <= 0,
// matching rand.Intn.
func (st *Stream) Pick(n int) int { return st.Intn(n) }

// Range returns a uniform float64 in [lo, hi).
func (st *Stream) Range(lo, hi float64) float64 {
	return lo + st.Float64()*(hi-lo)
}

// Jitter returns v scaled by a uniform factor in [1-frac, 1+frac]. It is
// used to add bounded variation to latency cost models.
func (st *Stream) Jitter(v float64, frac float64) float64 {
	return v * (1 + st.Range(-frac, frac))
}
