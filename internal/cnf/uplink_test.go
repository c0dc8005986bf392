package cnf

import (
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/linalg"
	"fastforward/internal/rng"
)

func TestUplinkReciprocitySISO(t *testing.T) {
	// SISO: scalars commute, so the same filter gives the identical
	// effective channel in both directions.
	src := rng.New(1)
	hsd, hsr, hrd := randChannels(src, 20)
	hc := DesiredSISO(hsd, hsr, hrd, 55)
	down := EffectiveSISO(hsd, hsr, hrd, hc)
	// Uplink: client->AP direct is hsd (reciprocal), client->relay is hrd,
	// relay->AP is hsr; same scalar filter.
	up := EffectiveSISO(hsd, hrd, hsr, hc)
	for i := range down {
		if cmplx.Abs(down[i]-up[i]) > 1e-15 {
			t.Fatalf("SISO reciprocity broken at %d: %v vs %v", i, down[i], up[i])
		}
	}
}

func TestUplinkReciprocityMIMO(t *testing.T) {
	// MIMO: with the transposed filter, the uplink effective channel is
	// the transpose of the downlink's — same determinant magnitude and
	// singular values, hence the same link quality.
	src := rng.New(2)
	Hsd, Hsr, Hrd := mimoChannels(src, 6, 2, 1e-8, 1e-6, 1e-7)
	FA := DesiredMIMO(Hsd, Hsr, Hrd, 55, src)
	down := EffectiveMIMO(Hsd, Hsr, Hrd, FA)
	up := EffectiveUplinkMIMO(Hsd, Hsr, Hrd, FA)
	for i := range down {
		dDet := cmplx.Abs(linalg.ToMat2(down[i]).Det())
		uDet := cmplx.Abs(linalg.ToMat2(up[i]).Det())
		if math.Abs(dDet-uDet) > 1e-12*(1+dDet) {
			t.Fatalf("subcarrier %d: det mismatch %v vs %v", i, dDet, uDet)
		}
		dsv := down[i].SingularValues()
		usv := up[i].SingularValues()
		for s := range dsv {
			if math.Abs(dsv[s]-usv[s]) > 1e-9*(1+dsv[s]) {
				t.Fatalf("subcarrier %d: singular value %d mismatch", i, s)
			}
		}
	}
}

func TestUplinkFilterIsTranspose(t *testing.T) {
	// Sec 4.2: the relay reuses the downlink filter transposed, and the
	// uplink effective channel is then exactly the transpose of the
	// downlink's, entry for entry.
	src := rng.New(3)
	Hsd, Hsr, Hrd := mimoChannels(src, 2, 2, 1e-8, 1e-6, 1e-7)
	FA := DesiredMIMO(Hsd, Hsr, Hrd, 40, src)
	down := EffectiveMIMO(Hsd, Hsr, Hrd, FA)
	up := EffectiveUplinkMIMO(Hsd, Hsr, Hrd, FA)
	for i := range down {
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				if up[i].At(c, r) != down[i].At(r, c) {
					t.Fatalf("subcarrier %d: uplink[%d][%d] = %v, downlink[%d][%d] = %v (bit-exact)",
						i, c, r, up[i].At(c, r), r, c, down[i].At(r, c))
				}
			}
		}
	}
}

func TestUplinkAmplificationAsymmetry(t *testing.T) {
	// Footnote 1: the amplification differs per direction because the
	// noise rule depends on the relay→destination attenuation of *that*
	// direction: relay→client downlink, relay→AP uplink.
	downAmp := AmplificationLimitDB(110, 80) // relay→client 80 dB
	upAmp := AmplificationLimitDB(110, 60)   // relay→AP 60 dB
	if downAmp != 77 || upAmp != 57 {
		t.Errorf("asymmetric amplification wrong: down %v up %v", downAmp, upAmp)
	}
}
