package cnf

import "fastforward/internal/linalg"

// Sec 4.2: "once the relay computes the constructive filter to use in the
// downlink direction for a particular AP-client pair, it can use the same
// filter in the uplink direction for the same client-AP pair" — by channel
// reciprocity the uplink channels are the transposes of the downlink ones,
// and the cascade through the relay transposes accordingly.
//
// For SISO links the scalars commute, so the downlink filter is literally
// reused. For MIMO, the uplink effective channel is the transpose of the
// downlink's when the relay applies Fᵀ:
//
//	(Hsd + Hrd·F·Hsr)ᵀ = Hsdᵀ + Hsrᵀ·Fᵀ·Hrdᵀ
//
// and a matrix and its transpose share singular values and determinant, so
// the uplink link quality equals the downlink's — no re-optimization
// needed. The amplification, however, is recomputed per direction (the
// paper's footnote 1): AmplificationLimitDB's noise rule depends on the
// relay→destination attenuation, which in the uplink is relay→AP.

// EffectiveUplinkMIMO computes the uplink effective channel for
// reciprocity-derived channels: Hds = Hsdᵀ (client→AP direct), Hdr = Hrdᵀ
// (client→relay), Hra = Hsrᵀ (relay→AP), with the transposed filter FAᵀ.
// The product associates as Hsrᵀ·(FAᵀ·Hrdᵀ) = ((Hrd·FA)·Hsr)ᵀ, mirroring
// EffectiveMIMO's order, so the result is EffectiveMIMO's transpose bit
// for bit. Nothing in the sweep runs the uplink; this is the fixture
// behind the Sec 4.2 reciprocity claim, pinned by
// TestUplinkFilterIsTranspose and TestUplinkReciprocityMIMO.
func EffectiveUplinkMIMO(Hsd, Hsr, Hrd, FA []*linalg.Matrix) []*linalg.Matrix {
	out := make([]*linalg.Matrix, len(Hsd))
	for i := range Hsd {
		out[i] = Hsd[i].Transpose().Add(
			Hsr[i].Transpose().Mul(FA[i].Transpose().Mul(Hrd[i].Transpose())))
	}
	return out
}
