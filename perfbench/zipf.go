package main

import (
	"math"
	"sort"
)

// splitmix64 is the benchmark's only source of randomness: a tiny,
// fully specified generator, so a seed names the same inputs on every
// Go version and platform.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// permutation returns a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	rng := splitmix64(seed)
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipfSequence returns count draws of a rank in [0, n) from a Zipf(s)
// distribution: rank r has weight 1/(r+1)^s, so rank 0 is the most
// popular. The result is a pure function of (seed, n, s, count).
func zipfSequence(seed uint64, n int, s float64, count int) []int {
	cdf := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	rng := splitmix64(seed)
	out := make([]int, count)
	for i := range out {
		r := sort.SearchFloat64s(cdf, rng.float()*total)
		out[i] = min(r, n-1)
	}
	return out
}
