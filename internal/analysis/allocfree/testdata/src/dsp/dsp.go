// Package dsp is a stub of fastforward/internal/dsp for allocfree
// fixtures: the allocating helpers and their zero-allocation variants.
package dsp

func Scale(x []complex128, g float64) []complex128 { return append([]complex128(nil), x...) }

func ScaleC(x []complex128, g complex128) []complex128 { return append([]complex128(nil), x...) }

func Add(a, b []complex128) []complex128 { return append([]complex128(nil), a...) }

func Sub(a, b []complex128) []complex128 { return append([]complex128(nil), a...) }

func Mul(a, b []complex128) []complex128 { return append([]complex128(nil), a...) }

func Clone(x []complex128) []complex128 { return append([]complex128(nil), x...) }

func AddInPlace(a, b []complex128) {}

func SubInPlace(a, b []complex128) {}

func ScaleCInPlace(x []complex128, g complex128) {}

func MulInto(dst, a, b []complex128) {}

func Power(x []complex128) float64 { return 0 }
