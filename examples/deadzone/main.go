// Deadzone walks through two of the paper's stories at the waveform level,
// running the full WiFi PHY (encode → channel + streaming relay → decode):
//
//  1. Rescue: a client so far from the AP that even BPSK fails; the
//     FastForward relay brings it to 16-QAM rates.
//  2. Noise amplification (Sec 3.5, Fig 11/17): a healthy client near the
//     AP is *hurt* by a blind amplify-and-forward repeater that amplifies
//     to the cancellation limit — its amplified noise swamps the direct
//     signal — while FastForward's noise-aware amplification rule backs
//     off and leaves the client unharmed.
//
// Run with: go run ./examples/deadzone
package main

import (
	"fmt"
	"math"
	"math/cmplx"

	"fastforward/internal/channel"
	"fastforward/internal/cnf"
	"fastforward/internal/dsp"
	"fastforward/internal/linalg"
	"fastforward/internal/ofdm"
	"fastforward/internal/relay"
	"fastforward/internal/rng"
	"fastforward/internal/wifi"
)

func main() {
	src := rng.New(3)
	p := ofdm.Default20MHz()
	codec := wifi.NewCodec(p)
	txPowerMW := dsp.WattsFromDBm(channel.TxPowerDBm) * 1000
	noiseMW := channel.NoiseFloorMW()
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}

	// deliver transmits `trials` frames at `mcs` through the given direct
	// channel, optionally via hops chSR→relay→chRD, and reports successes.
	deliver := func(name string, chSD, chSR, chRD *channel.SISO, relayDev *relay.FFRelay, mcs wifi.MCS, trials int) int {
		ok := 0
		noise := src.Fork()
		for t := 0; t < trials; t++ {
			wave, err := codec.Encode(payload, mcs)
			if err != nil {
				panic(err)
			}
			dsp.ScaleInPlace(wave, math.Sqrt(txPowerMW))
			// Pad so relay pipeline delay does not truncate the frame.
			wave = append(wave, make([]complex128, 64)...)
			rx := chSD.Apply(wave)
			if relayDev != nil {
				relayDev.Reset()
				atRelay := chSR.Apply(wave)
				relayed := chRD.Apply(relayDev.Process(atRelay))
				rx = dsp.Add(rx, relayed)
			}
			rx = channel.AWGN(noise, rx, noiseMW)
			if res, err := codec.Decode(rx); err == nil && res.FCSOK {
				ok++
			}
		}
		fmt.Printf("  %-34s %2d/%d frames at %v (%.1f Mbps)\n",
			name, ok, trials, mcs, mcs.PHYRateMbps(p, 1))
		return ok
	}

	// ---- Scene 1: dead-zone rescue -------------------------------------
	fmt.Println("Scene 1: dead-zone rescue (direct path -110 dB)")
	chSD := channel.NewRayleigh(src, 3, 0.5, dsp.Linear(-110))
	chSR := channel.NewRayleigh(src, 2, 0.5, dsp.Linear(-55))
	chRD := channel.NewRayleigh(src, 2, 0.5, dsp.Linear(-60))
	carriers := p.DataCarriers
	ampDB := cnf.AmplificationLimitDB(110, 60)
	ideal := cnf.DesiredSISO(
		chSD.ResponseVector(carriers, p.NFFT),
		chSR.ResponseVector(carriers, p.NFFT),
		chRD.ResponseVector(carriers, p.NFFT), ampDB)
	ff := relay.New(relay.Config{
		SampleRate:           p.SampleRate,
		AmplificationDB:      0, // gain folded into the pre-filter taps
		PipelineDelaySamples: 2,
		PreFilterTaps:        fitPreFilter(ideal, carriers, p, 4),
		RxNoiseMW:            noiseMW,
		NoiseSource:          src.Fork(),
	})
	deliver("AP only:", chSD, nil, nil, nil, wifi.MCSList()[0], 10)
	deliver("with FF relay:", chSD, chSR, chRD, ff, wifi.MCSList()[4], 10)

	// ---- Scene 2: blind amplification hurts ----------------------------
	fmt.Println("\nScene 2: healthy client, weak AP->relay link (Sec 3.5)")
	chSD2 := channel.NewRayleigh(src, 2, 0.5, dsp.Linear(-75)) // 35 dB SNR direct
	chSR2 := channel.NewRayleigh(src, 2, 0.5, dsp.Linear(-98)) // 12 dB at relay
	chRD2 := channel.NewRayleigh(src, 2, 0.5, dsp.Linear(-55))

	deliver("AP only:", chSD2, nil, nil, nil, wifi.MCSList()[7], 10)

	// Blind repeater: the same full-duplex pipeline with the default unit
	// pre-filter (no CNF), amplified to the cancellation limit with no
	// noise rule.
	af := relay.New(relay.Config{
		SampleRate:           p.SampleRate,
		AmplificationDB:      110 - cnf.StabilityMarginDB,
		PipelineDelaySamples: 2,
		RxNoiseMW:            noiseMW,
		NoiseSource:          src.Fork(),
	})
	deliver("blind amplify-and-forward:", chSD2, chSR2, chRD2, af, wifi.MCSList()[7], 10)

	// FastForward: the noise rule caps amplification at a-3 dB so relay
	// noise lands below the client's floor.
	ffAmp := cnf.AmplificationLimitDB(110, 55)
	ff2 := relay.New(relay.Config{
		SampleRate:           p.SampleRate,
		AmplificationDB:      ffAmp,
		PipelineDelaySamples: 2,
		RxNoiseMW:            noiseMW,
		NoiseSource:          src.Fork(),
	})
	deliver("FF (noise-aware amplification):", chSD2, chSR2, chRD2, ff2, wifi.MCSList()[7], 10)
	fmt.Println("\n(the blind repeater amplifies its own receiver noise over the client's")
	fmt.Println(" direct signal — the Fig 11 failure; FF's a-3 dB rule avoids it)")
}

// fitPreFilter least-squares fits the desired per-subcarrier response onto
// an nTaps causal FIR at the PHY sample rate.
func fitPreFilter(desired []complex128, carriers []int, p *ofdm.Params, nTaps int) []complex128 {
	A := linalg.NewMatrix(len(carriers), nTaps)
	b := make([]complex128, len(carriers))
	for i, k := range carriers {
		b[i] = desired[i]
		f := float64(k) / float64(p.NFFT)
		for n := 0; n < nTaps; n++ {
			A.Set(i, n, cmplx.Exp(complex(0, -2*math.Pi*f*float64(n))))
		}
	}
	taps, err := linalg.LeastSquares(A, b, 1e-9)
	if err != nil {
		panic(err)
	}
	return taps
}
