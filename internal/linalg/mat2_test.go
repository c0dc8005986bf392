package linalg

import "testing"

var mat2Sink struct {
	m   Mat2
	det complex128
	err error
}

// BenchmarkMat2 times the per-step kernels of the CNF ascent on a
// near-unitary 2×2, as the ascent projects it: one Inverse, one Det and
// one ProjectUnitary. `make bench-allocs` holds it at 0 allocs/op.
func BenchmarkMat2(b *testing.B) {
	m := Mat2{0.6, 0.8i, 0.8i, complex(0.6+1e-7, -1e-8)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat2Sink.m, mat2Sink.err = m.Inverse()
		mat2Sink.det = m.Det()
		mat2Sink.m, mat2Sink.err = m.ProjectUnitary()
	}
}
