package cnf

import (
	"testing"

	"fastforward/internal/channel"
	"fastforward/internal/golden"
	"fastforward/internal/linalg"
	"fastforward/internal/ofdm"
	"fastforward/internal/rng"
)

// TestSynthesisGolden pins the CNF pipeline on a seed-fixed three-channel
// draw: the desired per-subcarrier filter, its synthesized implementation's
// tap energy and fit error, and a sample of the realized response. Filter
// or synthesis changes re-baseline with -update; anything else is a
// regression (golden.Check is bit-exact on amd64).
func TestSynthesisGolden(t *testing.T) {
	p := ofdm.Default20MHz()
	carriers := p.DataCarriers
	hsd := channel.NewRayleigh(rng.New(101), 6, 0.4, 1.0).ResponseVector(carriers, p.NFFT)
	hsr := channel.NewRayleigh(rng.New(102), 4, 0.3, 2.0).ResponseVector(carriers, p.NFFT)
	hrd := channel.NewRayleigh(rng.New(103), 5, 0.5, 1.5).ResponseVector(carriers, p.NFFT)

	got := map[string]float64{}
	for _, ampDB := range []float64{20, 40} {
		desired := DesiredSISO(hsd, hsr, hrd, ampDB)
		impl := Synthesize(desired, carriers, p.NFFT, p.SampleRate)
		realized := impl.ApplyImplementation(carriers, p.NFFT, p.SampleRate)
		got[golden.Key("cnf", ampDB, "tap_energy")] = impl.TapEnergy()
		got[golden.Key("cnf", ampDB, "fit_error_db")] = impl.FitErrorDB
		// Spot-check the realized response at a few carriers: fit metrics
		// alone can stay flat while the response rotates.
		for _, i := range []int{0, len(carriers) / 2, len(carriers) - 1} {
			got[golden.Key("cnf", ampDB, "re", i)] = real(realized[i])
			got[golden.Key("cnf", ampDB, "im", i)] = imag(realized[i])
		}
	}
	golden.Check(t, "testdata/synthesis_golden.json", got)
}

// warmChain returns the per-carrier 2×2 channels of one Fig 12 client
// evaluation: 12 data carriers at stride 4 of three multipath links, so
// consecutive carriers are close and DesiredMIMO's warm start carries.
func warmChain(seed int64) (Hsd, Hsr, Hrd []*linalg.Matrix) {
	src := rng.New(seed)
	p := ofdm.Default20MHz()
	sd := channel.NewRichScattering(src, 2, 2, 4, 0.5, 1e-8)
	sr := channel.NewRichScattering(src, 2, 2, 3, 0.5, 1e-6)
	rd := channel.NewRichScattering(src, 2, 2, 3, 0.5, 1e-7)
	for _, k := range warmCarriers() {
		Hsd = append(Hsd, sd.FrequencyResponse(k, p.NFFT))
		Hsr = append(Hsr, sr.FrequencyResponse(k, p.NFFT))
		Hrd = append(Hrd, rd.FrequencyResponse(k, p.NFFT))
	}
	return Hsd, Hsr, Hrd
}

// warmCarriers returns warmChain's 12 subcarrier indices: every fourth
// data carrier.
func warmCarriers() []int {
	p := ofdm.Default20MHz()
	carriers := make([]int, 0, 12)
	for i := 0; len(carriers) < 12; i += 4 {
		carriers = append(carriers, p.DataCarriers[i])
	}
	return carriers
}

// singularChain is warmChain with no direct path and a rank-one
// relay→destination channel (row 2 = 2 × row 1), so the effective channel
// Hrd·F·A·Hsr is singular for every F: the optimizer's failed-inverse
// paths (the random nudge with a source, the early stop without) run on
// every carrier, warm starts included.
func singularChain(seed int64) (Hsd, Hsr, Hrd []*linalg.Matrix) {
	Hsd, Hsr, Hrd = warmChain(seed)
	for i := range Hsd {
		Hsd[i] = linalg.NewMatrix(2, 2)
		Hrd[i].Set(1, 0, 2*Hrd[i].At(0, 0))
		Hrd[i].Set(1, 1, 2*Hrd[i].At(0, 1))
	}
	return Hsd, Hsr, Hrd
}

// TestDesiredMIMOGolden pins DesiredMIMO exactly: every entry of every
// per-carrier F·A on the sweep-shaped warm chain (two amplification
// levels, with and without a restart source) and on the singular chain,
// plus the next draw of the source after each call, so a change that
// keeps the filters but consumes randomness differently still fails.
func TestDesiredMIMOGolden(t *testing.T) {
	got := map[string]float64{}
	record := func(name string, ampDB float64, FA []*linalg.Matrix, src *rng.Source) {
		for c, fa := range FA {
			for i, v := range fa.Data {
				got[golden.Key("mimo", name, ampDB, c, "re", i)] = real(v)
				got[golden.Key("mimo", name, ampDB, c, "im", i)] = imag(v)
			}
		}
		if src != nil {
			got[golden.Key("mimo", name, ampDB, "next_draw")] = src.Float64()
		}
	}
	Hsd, Hsr, Hrd := warmChain(31)
	for _, ampDB := range []float64{45, 60} {
		src := rng.New(32)
		record("warm", ampDB, DesiredMIMO(Hsd, Hsr, Hrd, ampDB, src), src)
		record("nosrc", ampDB, DesiredMIMO(Hsd, Hsr, Hrd, ampDB, nil), nil)
	}
	Hsd, Hsr, Hrd = singularChain(33)
	src := rng.New(34)
	record("singular", 55, DesiredMIMO(Hsd, Hsr, Hrd, 55, src), src)
	record("singular_nosrc", 55, DesiredMIMO(Hsd, Hsr, Hrd, 55, nil), nil)
	golden.Check(t, "testdata/desired_mimo_golden.json", got)
}

// TestSynthesizeMIMOGolden pins SynthesizeMIMO exactly: every digital tap,
// every analog gain and the fit error of every antenna pair, synthesized
// from DesiredMIMO's output on the sweep-shaped warm chain at two
// amplification levels. TestSynthesisGolden samples the SISO synthesis;
// this vector holds every number the MIMO synthesis produces.
func TestSynthesizeMIMOGolden(t *testing.T) {
	p := ofdm.Default20MHz()
	carriers := warmCarriers()
	Hsd, Hsr, Hrd := warmChain(31)
	got := map[string]float64{}
	for _, ampDB := range []float64{45, 60} {
		FA := DesiredMIMO(Hsd, Hsr, Hrd, ampDB, rng.New(32))
		impl := SynthesizeMIMO(FA, carriers, p.NFFT, p.SampleRate)
		for i, row := range impl.Pairs {
			for j, fi := range row {
				pair := golden.Key("synth_mimo", ampDB, i, j)
				for m, h := range fi.DigitalTaps {
					got[golden.Key(pair, "tap", m, "re")] = real(h)
					got[golden.Key(pair, "tap", m, "im")] = imag(h)
				}
				for k, g := range fi.AnalogGains {
					got[golden.Key(pair, "gain", k)] = g
				}
				got[golden.Key(pair, "fit_error_db")] = fi.FitErrorDB
			}
		}
	}
	golden.Check(t, "testdata/synthesize_mimo_golden.json", got)
}
