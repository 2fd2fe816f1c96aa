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
// The generator's state is built on its first draw, so a stream that is
// never drawn from costs a few words instead of math/rand's 4.9 KB.
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

// lazySource is rand.NewSource(seed), built on the first draw.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.source().Int63() }
func (l *lazySource) Uint64() uint64  { return l.source().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

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
