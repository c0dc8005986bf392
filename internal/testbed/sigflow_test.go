package testbed

import (
	"bytes"
	"math"
	"testing"

	"fastforward/internal/channel"
	"fastforward/internal/cnf"
	"fastforward/internal/dsp"
	"fastforward/internal/ident"
	"fastforward/internal/ofdm"
	"fastforward/internal/relay"
	"fastforward/internal/rng"
	"fastforward/internal/wifi"
)

// TestSignatureDrivenRelaying exercises the full Sec 6 downlink flow at
// the waveform level: the AP prepends each client's PN signature; the
// relay detects it from the raw samples, selects that client's
// constructive filter, and forwards. The wrong client's filter — or a
// foreign network's packet — must leave the destination unhelped.
func TestSignatureDrivenRelaying(t *testing.T) {
	src := rng.New(21)
	p := ofdm.Default20MHz()
	codec := wifi.NewCodec(p)
	txMW := dsp.WattsFromDBm(0) * 1000
	noiseMW := channel.NoiseFloorMW() * dsp.Linear(8)
	payload := make([]byte, 60)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	// Two clients in different dead zones with different channels.
	type clientEnv struct {
		id         int
		chSD, chRD *channel.SISO
		filter     []complex128
	}
	chSR := channel.NewRayleigh(src, 2, 0.5, dsp.Linear(-52))
	carriers := p.DataCarriers
	hsr := chSR.ResponseVector(carriers, p.NFFT)

	mkClient := func(id int) clientEnv {
		chSD := channel.NewRayleigh(src, 3, 0.5, dsp.Linear(-105))
		chRD := channel.NewRayleigh(src, 2, 0.5, dsp.Linear(-58))
		hsd := chSD.ResponseVector(carriers, p.NFFT)
		hrd := chRD.ResponseVector(carriers, p.NFFT)
		amp := cnf.AmplificationLimitDB(110, 58)
		// PA cap at 0 dBm relay with rx at -52 dBm.
		if pa := 0.0 - (0 - 52); pa < amp {
			amp = pa
		}
		ideal := cnf.DesiredSISO(hsd, hsr, hrd, amp)
		taps, _, err := cnf.FitTaps(ideal, carriers, p.NFFT, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		return clientEnv{
			id:     id,
			chSD:   chSD,
			chRD:   chRD,
			filter: taps,
		}
	}
	clients := []clientEnv{mkClient(1), mkClient(2)}

	// The relay's selector, loaded with both clients' filters.
	const sigLen = 80
	sel := ident.NewSelector[[]complex128]([]int{1, 2}, sigLen, 0.55)
	for _, c := range clients {
		sel.SetFilter(c.id, c.filter)
	}

	// deliver sends one signed frame to `target` and decodes at the
	// destination; the relay picks its filter from the signature alone.
	deliver := func(target clientEnv, mcs wifi.MCS) bool {
		frame, err := codec.Encode(payload, mcs)
		if err != nil {
			t.Fatal(err)
		}
		sig := ident.SignatureWaveform(target.id, sigLen, 1)
		wave := append(append([]complex128{}, sig...), frame...)
		dsp.ScaleInPlace(wave, math.Sqrt(txMW))
		wave = append(wave, make([]complex128, 64)...)

		// Relay side: receive through AP->relay channel, identify, forward.
		atRelay := chSR.Apply(wave)
		_, filter, ok := sel.Select(atRelay[:3*sigLen])
		rx := target.chSD.Apply(wave)
		if ok {
			ff := relay.New(relay.Config{
				SampleRate:           p.SampleRate,
				AmplificationDB:      0,
				PipelineDelaySamples: 2,
				PreFilterTaps:        filter,
				RxNoiseMW:            noiseMW,
				NoiseSource:          src.Fork(),
			})
			rx = dsp.Add(rx, target.chRD.Apply(ff.Process(atRelay)))
		}
		rx = channel.AWGN(src, rx, noiseMW)
		res, err := codec.Decode(rx)
		return err == nil && res.FCSOK && bytes.Equal(res.Payload, payload)
	}

	mcs := wifi.MCSList()[2]
	// Both clients decode via their own signature-selected filters.
	for _, c := range clients {
		ok := 0
		for i := 0; i < 4; i++ {
			if deliver(c, mcs) {
				ok++
			}
		}
		if ok < 3 {
			t.Errorf("client %d: %d/4 signed frames decoded", c.id, ok)
		}
	}

	// A foreign network's packet (unknown signature) is not relayed: the
	// dead-zone client cannot decode it.
	foreign := clients[0]
	foreign.id = 99 // signature unknown to the selector
	ok := 0
	for i := 0; i < 4; i++ {
		if deliver(foreign, mcs) {
			ok++
		}
	}
	if ok > 1 {
		t.Errorf("foreign packets decoded %d/4 times; relay should not forward them", ok)
	}
}
