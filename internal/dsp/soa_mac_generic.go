package dsp

// firMAC4Go is the Go body of firMAC4 and its semantics reference (see
// soa_mac_amd64.go for the contract): the assembly kernel must match it
// bit for bit. It runs every pass on hosts without AVX2 and the last
// len(yr)%4 outputs of each pass on hosts with it.
func firMAC4Go(yr, yi, xr, xi []float64, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i float64) {
	n := len(yr)
	yi = yi[:n]
	x3r, x3i := xr[:n], xi[:n]
	x2r, x2i := xr[1:1+n], xi[1:1+n]
	x1r, x1i := xr[2:2+n], xi[2:2+n]
	x0r, x0i := xr[3:3+n], xi[3:3+n]
	for i := 0; i < n; i++ {
		ar, ai := yr[i], yi[i]
		a, b := x0r[i], x0i[i]
		ar += h0r*a - h0i*b
		ai += h0r*b + h0i*a
		a, b = x1r[i], x1i[i]
		ar += h1r*a - h1i*b
		ai += h1r*b + h1i*a
		a, b = x2r[i], x2i[i]
		ar += h2r*a - h2i*b
		ai += h2r*b + h2i*a
		a, b = x3r[i], x3i[i]
		ar += h3r*a - h3i*b
		ai += h3r*b + h3i*a
		yr[i], yi[i] = ar, ai
	}
}

// firMAC8Go is the Go body of firMAC8 and its semantics reference: two
// firMAC4Go passes, taps 0–3 and then taps 4–7. A four-tap pass stores
// y[i] and the next reloads it, where the ZMM kernel keeps it in a
// register; the value and the order of the additions are the same, so
// the bits are too. It runs the last len(yr)%8 outputs of each eight-tap
// pass.
func firMAC8Go(yr, yi, xr, xi, hr, hi []float64) {
	firMAC4Go(yr, yi, xr[4:], xi[4:], hr[0], hi[0], hr[1], hi[1], hr[2], hi[2], hr[3], hi[3])
	firMAC4Go(yr, yi, xr, xi, hr[4], hi[4], hr[5], hi[5], hr[6], hi[6], hr[7], hi[7])
}
