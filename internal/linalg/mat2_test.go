package linalg

import "testing"

var mat2Sink struct {
	m   Mat2
	det complex128
	err error
}

// climbCandidates are projections the CNF ascent makes: the first
// candidates x + 0.5·grad of two climbs on warmChain(31)'s first carrier
// at 60 dB (internal/cnf), the identity start's and the first random
// start's. Their projections take 6 and 7 Newton iterates, near the mean
// of 5.6 that Fig 12's projections take.
var climbCandidates = [...]Mat2{
	{complex(1.5030593479650913, -0.10506005441801322), complex(0.0062001021463002634, -0.04502811236673822),
		complex(0.1819994110193663, 0.20645806260278093), complex(1.3502334158816158, -0.014530559917793931)},
	{complex(0.5387242864975335, 0.3151664125983277), complex(3.3587335461180996, -1.0706560876125417),
		complex(-1.5395666946845559, -0.1803901640326155), complex(-0.6581245129140185, -0.04520030239194891)},
}

// mat2Vals returns m's entries as kernelCase values: real then imaginary
// part of each, in storage order.
func mat2Vals(m Mat2) []float64 {
	vals := make([]float64, 0, 2*len(m))
	for _, v := range m {
		vals = append(vals, real(v), imag(v))
	}
	return vals
}

// BenchmarkMat2 times the per-step kernels of the CNF ascent, as the
// ascent projects a matrix: one Inverse, one Det and one ProjectUnitary.
// near-unitary is a matrix whose projection converges in 2 Newton iterates;
// climb-step is the identity start's first candidate, whose projection
// takes 6 iterates, the shape of the sweep's projections.
// `make bench-allocs` holds both at 0 allocs/op.
func BenchmarkMat2(b *testing.B) {
	for _, bc := range []struct {
		name string
		m    Mat2
	}{
		{"near-unitary", Mat2{0.6, 0.8i, 0.8i, complex(0.6+1e-7, -1e-8)}},
		{"climb-step", climbCandidates[0]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := bc.m
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mat2Sink.m, mat2Sink.err = m.Inverse()
				mat2Sink.det = m.Det()
				mat2Sink.m, mat2Sink.err = m.ProjectUnitary()
			}
		})
	}
}
