// Package engine provides the cycle-driven simulation kernel: deterministic
// random numbers, unidirectional links with latency and credit-based flow
// control, and the simulation loop with a progress watchdog.
package engine

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64).
// Every stochastic decision in the simulator draws from an RNG seeded from
// the run configuration, so identical configurations replay identically.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent stream identified by tag, leaving the parent
// stream untouched. Components fork per-entity streams so that adding a
// component does not perturb the draws of the others.
func (r *RNG) Fork(tag uint64) *RNG {
	mixed := splitmix(r.state + 0x9e3779b97f4a7c15*(tag+1))
	return &RNG{state: mixed}
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip moves the stream n draws ahead without drawing: every draw adds the
// same constant to the state, so n draws add n times it (mod 2^64).
func (r *RNG) Skip(n uint64) { r.state += n * 0x9e3779b97f4a7c15 }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("engine: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// BernoulliRun draws Bernoulli(p) until one succeeds or limit draws are
// spent, and returns the number of failed draws before the success (limit
// if none succeeded). The stream ends exactly where that many Bernoulli
// calls would leave it.
func (r *RNG) BernoulliRun(p float64, limit int64) int64 {
	// Float64() < p compares x/2^53 with p for a 53-bit integer x; both
	// sides are exact, so it equals the integer test x < ceil(p*2^53).
	var thr uint64 // 0 never succeeds: p <= 0 or NaN
	switch {
	case p >= 1:
		thr = 1 << 53
	case p > 0:
		thr = uint64(math.Ceil(p * (1 << 53)))
	}
	var k int64
	for k < limit && r.Uint64()>>11 >= thr {
		k++
	}
	return k
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct uniform values from [0, n) excluding the
// members of excl. It panics if fewer than k values are available.
func (r *RNG) Sample(n, k int, excl map[int]bool) []int {
	avail := n - len(excl)
	if k > avail {
		panic("engine: Sample k exceeds available population")
	}
	// Partial Fisher-Yates over the allowed population.
	pool := make([]int, 0, avail)
	for i := 0; i < n; i++ {
		if !excl[i] {
			pool = append(pool, i)
		}
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		out[i] = pool[i]
	}
	return out
}
