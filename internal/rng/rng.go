// Package rng provides deterministic, seedable random sources for the
// simulation: complex Gaussian noise (thermal noise, transmitter noise),
// Rayleigh multipath tap generation, and random unitary matrices for MIMO
// channel synthesis. Every experiment in the harness is reproducible
// because all randomness flows through a seeded Source.
package rng

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// Source is a deterministic random source for simulation components.
type Source struct {
	r  *rand.Rand
	lf lfSource // r's generator
}

// New returns a Source seeded with seed. Its stream is the one
// rand.New(rand.NewSource(seed)) draws, bit for bit.
func New(seed int64) *Source {
	s := new(Source)
	s.lf.Seed(seed)
	s.r = rand.New(&s.lf)
	return s
}

// Fork derives an independent Source from this one; useful for giving each
// simulated device its own stream while keeping the experiment reproducible.
func (s *Source) Fork() *Source {
	return New(s.r.Int63())
}

// ItemSeed derives a decorrelated seed for work item i of an experiment
// seeded with base. Parallel sweeps (internal/par) give every item its own
// Source seeded this way instead of drawing from a shared sequential
// stream, which makes results independent of execution order — and hence
// bit-identical for any worker count. The mixer is splitmix64's
// finalizer, so neighboring (base, i) pairs map to well-separated streams.
func ItemSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Keep the seed non-negative so it round-trips through APIs that
	// treat seeds as int63.
	return int64(z >> 1)
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0,n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Norm returns a standard normal sample.
func (s *Source) Norm() float64 { return s.r.NormFloat64() }

// ComplexGaussian returns one circularly-symmetric complex Gaussian sample
// with total variance (power) sigma2: real and imaginary parts each have
// variance sigma2/2.
func (s *Source) ComplexGaussian(sigma2 float64) complex128 {
	sd := math.Sqrt(sigma2 / 2)
	return complex(sd*s.r.NormFloat64(), sd*s.r.NormFloat64())
}

// NoiseVector returns n complex Gaussian noise samples with average power
// sigma2 per sample.
func (s *Source) NoiseVector(n int, sigma2 float64) []complex128 {
	v := make([]complex128, n)
	sd := math.Sqrt(sigma2 / 2)
	for i := range v {
		v[i] = complex(sd*s.r.NormFloat64(), sd*s.r.NormFloat64())
	}
	return v
}

// RayleighTap returns a zero-mean complex Gaussian tap with average power p
// — the classical Rayleigh-fading multipath coefficient.
func (s *Source) RayleighTap(p float64) complex128 {
	return s.ComplexGaussian(p)
}

// UniformPhase returns exp(jθ) with θ uniform in [0,2π).
func (s *Source) UniformPhase() complex128 {
	return cmplx.Exp(complex(0, 2*math.Pi*s.r.Float64()))
}

// RandomUnitary returns an n×n Haar-ish random unitary matrix (via
// Gram-Schmidt on a complex Gaussian matrix), flattened row-major. It is
// used to synthesize rich-scattering MIMO channels and to seed the CNF
// filter optimizer with random rotations.
func (s *Source) RandomUnitary(n int) [][]complex128 {
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
		for j := range m[i] {
			m[i][j] = s.ComplexGaussian(1)
		}
	}
	// Gram-Schmidt over rows.
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			var proj complex128
			for j := 0; j < n; j++ {
				proj += m[i][j] * cmplx.Conj(m[k][j])
			}
			for j := 0; j < n; j++ {
				m[i][j] -= proj * m[k][j]
			}
		}
		var norm float64
		for j := 0; j < n; j++ {
			norm += real(m[i][j])*real(m[i][j]) + imag(m[i][j])*imag(m[i][j])
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			// Degenerate (probability zero); fall back to a basis vector.
			m[i][i] = 1
			continue
		}
		inv := complex(1/norm, 0)
		for j := 0; j < n; j++ {
			m[i][j] *= inv
		}
	}
	return m
}

// Shuffle shuffles a slice of ints in place.
func (s *Source) Shuffle(v []int) {
	s.r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
}
