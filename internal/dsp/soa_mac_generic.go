package dsp

// firFilterSoAGo is the Go body of firFilterSoA and its semantics
// reference (see soa.go for the contract): the vector bodies must match
// it bit for bit. Per output it runs FIR.Push's tap loop over the planar
// inputs — a running sum from +0, taps in ascending k, each product
// expanded as hr*a − hi*b and hr*b + hi*a — then stores the sum or
// subtracts it from dst. It runs every output on hosts without a vector
// body and the tail the vector body leaves otherwise.
func firFilterSoAGo(dst []complex128, xr, xi, hr, hi []float64, sub bool) {
	t := len(hr)
	hi = hi[:t]
	for i := range dst {
		wr, wi := xr[i:i+t], xi[i:i+t]
		var ar, ai float64
		for k, h := range hr {
			a, b := wr[t-1-k], wi[t-1-k]
			ar += h*a - hi[k]*b
			ai += h*b + hi[k]*a
		}
		if sub {
			dst[i] -= complex(ar, ai)
		} else {
			dst[i] = complex(ar, ai)
		}
	}
}

// deinterleaveGo is the Go body of Deinterleave, over equal lengths.
func deinterleaveGo(re, im []float64, x []complex128) {
	re, im = re[:len(x)], im[:len(x)]
	for i, v := range x {
		re[i], im[i] = real(v), imag(v)
	}
}
