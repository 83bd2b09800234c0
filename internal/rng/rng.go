// Package rng provides deterministic, splittable random streams.
//
// Every stochastic component of the reproduction (workload generation,
// monitor noise, ML tie-breaking) draws from an explicit *rng.Stream so
// that experiments are reproducible bit-for-bit from a single root seed.
// Streams are split by name, so adding a new consumer never perturbs the
// draws seen by existing ones — a property plain shared math/rand sources
// do not have.
package rng

import (
	"math"
	"math/rand/v2"
	"unsafe"
)

// Stream is a deterministic source of pseudo-random values. It is NOT safe
// for concurrent use; split one stream per goroutine instead.
//
// A Stream is one allocation holding its PCG state and the Rand that
// draws from it, padded to whole cache lines. Every draw writes the PCG
// state, so two streams drawn on different goroutines must not share a
// line: unpadded, the two 16-byte PCGs of concurrent fill workers landed
// side by side and the split fill ran slower than a serial one.
type Stream struct {
	pcg rand.PCG
	r   rand.Rand
	_   [streamPad]byte
}

// streamSize is a Stream's size in bytes: two 64-byte cache lines, so the
// adjacent-line prefetcher, which pulls lines in 128-byte pairs, does not
// couple neighbouring streams either. The allocator's 128-byte size class
// places each Stream at a 128-byte boundary.
const (
	streamSize = 128
	streamPad  = streamSize - unsafe.Sizeof(rand.PCG{}) - unsafe.Sizeof(rand.Rand{})
)

// New returns a stream seeded from the two seed words.
func New(seed1, seed2 uint64) *Stream {
	s := new(Stream)
	s.pcg.Seed(seed1, seed2)
	s.r = *rand.New(&s.pcg)
	return s
}

// Reseed resets the stream in place to the state a fresh New(seed1, seed2)
// would have. It lets hot paths that need one short-lived stream per work
// item (the trace generator draws per (VM, tick)) reuse a single Stream
// instead of allocating one per item.
func (s *Stream) Reseed(seed1, seed2 uint64) { s.pcg.Seed(seed1, seed2) }

// fnv1aOffset and fnv1aPrime are the 64-bit FNV-1a constants, inlined so
// name hashing never allocates a hash.Hash.
const (
	fnv1aOffset uint64 = 14695981039346656037
	fnv1aPrime  uint64 = 1099511628211
)

// NamedSeed hashes a stream name to a seed word with FNV-1a — the mixing
// NewNamed applies.
func NamedSeed(name string) uint64 {
	h := fnv1aOffset
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnv1aPrime
	}
	return h
}

// NamedSeedBytes is NamedSeed over a byte slice, for callers that build
// names into a reusable buffer to avoid per-call string allocation.
func NamedSeedBytes(name []byte) uint64 {
	h := fnv1aOffset
	for _, b := range name {
		h ^= uint64(b)
		h *= fnv1aPrime
	}
	return h
}

// NewNamed derives a stream from a root seed and a name, mixing the name
// into the seed with FNV-1a. Identical (seed, name) pairs always produce
// identical streams.
func NewNamed(seed uint64, name string) *Stream {
	return New(seed, NamedSeed(name))
}

// Split derives an independent child stream. The child's sequence depends
// only on the parent's seed and the given name, not on how many values the
// parent has produced, because the derivation consumes no parent draws.
func (s *Stream) Split(name string) *Stream {
	// Consume two words deterministically positioned at the time of the
	// split; callers split everything up front so ordering is stable.
	return New(s.r.Uint64(), NamedSeed(name))
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Norm returns a normally distributed value with the given mean and
// standard deviation.
func (s *Stream) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// StdNormal returns a standard normal deviate (mean 0, deviation 1).
func (s *Stream) StdNormal() float64 { return s.r.NormFloat64() }

// LogNormal returns a log-normally distributed value whose underlying
// normal has parameters mu and sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return LogNormalAt(mu, sigma, s.r.NormFloat64())
}

// LogNormalAt returns exp(mu + sigma*z), the value LogNormal(mu, sigma)
// returns when its standard normal draw is z. Callers that draw deviates
// in one pass (StdNormal) and transform them in another use it, so both
// paths agree with LogNormal to the last bit.
func LogNormalAt(mu, sigma, z float64) float64 { return math.Exp(mu + sigma*z) }

// Exp returns an exponentially distributed value with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Pareto returns a bounded Pareto draw with shape alpha and minimum xm,
// the heavy-tailed distribution used for web object sizes.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomises the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
