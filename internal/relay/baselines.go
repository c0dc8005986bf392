package relay

// The paper's comparison points (Secs 2 and 5): the half-duplex
// decode-and-forward mesh router (Apple Airport Express style) and the
// blind amplify-and-forward repeater. The mesh router operates at packet
// granularity, so it is modeled as a rate combinator rather than a sample
// pipeline; the blind repeater is an FFRelay built by New with the
// default unit pre-filter and cancellation-limited amplification.

// HalfDuplexMeshRate returns the end-to-end PHY throughput of a two-hop
// half-duplex relay under the paper's idealized MAC: the AP and the mesh
// router transmit in perfectly scheduled alternating slots, so forwarding
// R1 (AP→relay) and R2 (relay→client) combine as the harmonic mean
// R1·R2/(R1+R2) — each packet consumes airtime on both hops.
func HalfDuplexMeshRate(r1, r2 float64) float64 {
	if r1 <= 0 || r2 <= 0 {
		return 0
	}
	return r1 * r2 / (r1 + r2)
}

// BestHalfDuplexRate models the paper's "AP is smart enough to figure out
// when it should use the half-duplex router": the max of the direct rate
// and the two-hop rate.
func BestHalfDuplexRate(direct, r1, r2 float64) float64 {
	two := HalfDuplexMeshRate(r1, r2)
	if direct > two {
		return direct
	}
	return two
}
