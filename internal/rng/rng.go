// Package rng provides a small, fast, deterministic pseudo-random number
// generator for simulations.
//
// The simulator must be fully reproducible: the same seed must yield the
// same event trace on every run and platform. math/rand would work, but a
// local implementation keeps the algorithm pinned forever (the stdlib's
// default source has changed across Go releases) and avoids any global
// state. The generator is SplitMix64, which passes BigCrush and is more
// than adequate for driving backoff choices and loss injection.
package rng

import "math/bits"

// Rand is a deterministic SplitMix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; use New to seed it.
// Rand is not safe for concurrent use; in the simulator every Rand is
// owned by a single logical process.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds give
// independent-looking streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Modulo bias is negligible for the simulator's small n, but Lemire's
	// multiply-shift rejection is just as cheap and exact.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator from r's stream, for handing a
// private source to a sub-component without sharing mutable state.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64())
}

// mix64 is the SplitMix64 output finalizer: a strong 64-bit bijection.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes the parts into one well-mixed seed. Use this to derive
// per-component seeds from a base seed plus an index.
//
// Deriving seeds arithmetically (seed ^ i*K, seed + i, ...) is a trap
// with counter-based generators like SplitMix64: seeds that differ by a
// multiple of the internal increment yield the SAME output sequence,
// merely shifted — two "independent" components then draw identical
// values in lockstep. Mix runs every part through the finalizer
// bijection so related inputs land on unrelated states.
func Mix(parts ...uint64) uint64 {
	h := uint64(0x1905_2A66_D34D_ED0A)
	for _, p := range parts {
		h = mix64(h + 0x9e3779b97f4a7c15)
		h = mix64(h ^ mix64(p))
	}
	return h
}
