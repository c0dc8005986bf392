// Package channel models the wireless propagation substrate of the
// FastForward evaluation: sample-spaced tapped-delay-line multipath
// channels, additive white Gaussian noise at a configurable noise floor,
// and MIMO channel synthesis including
// the rank-deficient "RF pinhole" channels (Sec 1) that motivate the paper.
//
// Power convention: waveform sample power is measured in milliwatts, so a
// unit-power waveform is 0 dBm, the paper's 20 dBm transmit power is a mean
// sample power of 100, and the −90 dBm noise floor is 1e−9.
package channel

import (
	"math"
	"math/cmplx"

	"fastforward/internal/dsp"
	"fastforward/internal/linalg"
	"fastforward/internal/rng"
)

// Standard power constants from the paper's prototype (Sec 3.3).
const (
	// TxPowerDBm is the maximum transmit power.
	TxPowerDBm = 20.0
	// NoiseFloorDBm is the receiver noise floor.
	NoiseFloorDBm = -90.0
)

// SISO is a linear time-invariant single-antenna channel: a tapped delay
// line at sample spacing, plus an optional whole-sample bulk delay.
type SISO struct {
	// Taps is the channel impulse response at sample spacing; Taps[0]
	// multiplies the current sample.
	Taps []complex128
	// Delay is an extra bulk delay in whole samples (propagation distance).
	Delay int
}

// NewFlat returns a single-tap channel with complex gain g.
func NewFlat(g complex128) *SISO {
	return &SISO{Taps: []complex128{g}}
}

// NewRayleigh returns a Rayleigh-fading channel with nTaps taps following
// an exponential power-delay profile with the given decay (power ratio
// between successive taps, e.g. 0.5), normalized to total average power
// gainLin.
func NewRayleigh(src *rng.Source, nTaps int, decay, gainLin float64) *SISO {
	if nTaps < 1 {
		nTaps = 1
	}
	prof := make([]float64, nTaps)
	sum := 0.0
	p := 1.0
	for i := range prof {
		prof[i] = p
		sum += p
		p *= decay
	}
	taps := make([]complex128, nTaps)
	for i := range taps {
		taps[i] = src.RayleighTap(prof[i] / sum * gainLin)
	}
	return &SISO{Taps: taps}
}

// Apply convolves x with the channel (same-length output) and applies the
// bulk delay. No noise is added.
func (c *SISO) Apply(x []complex128) []complex128 {
	y := dsp.FilterSame(x, c.Taps)
	if c.Delay != 0 {
		y = dsp.Delay(y, c.Delay)
	}
	return y
}

// Gain returns the total average power gain sum |tap|².
func (c *SISO) Gain() float64 {
	var g float64
	for _, t := range c.Taps {
		g += real(t)*real(t) + imag(t)*imag(t)
	}
	return g
}

// GainDB returns the channel power gain in dB (negative for attenuation).
func (c *SISO) GainDB() float64 { return dsp.DB(c.Gain()) }

// FrequencyResponse returns the channel gain at logical subcarrier k of an
// nfft-point OFDM system, including the bulk delay's phase ramp.
func (c *SISO) FrequencyResponse(k, nfft int) complex128 {
	f := float64(k) / float64(nfft)
	var acc complex128
	for d, tap := range c.Taps {
		acc += tap * cmplx.Exp(complex(0, -2*math.Pi*f*float64(d+c.Delay)))
	}
	return acc
}

// ResponseVector returns FrequencyResponse over a set of subcarriers.
func (c *SISO) ResponseVector(carriers []int, nfft int) []complex128 {
	out := make([]complex128, len(carriers))
	for i, k := range carriers {
		out[i] = c.FrequencyResponse(k, nfft)
	}
	return out
}

// Scale multiplies all taps by the real amplitude factor a and returns the
// channel for chaining.
func (c *SISO) Scale(a float64) *SISO {
	for i := range c.Taps {
		c.Taps[i] *= complex(a, 0)
	}
	return c
}

// AWGN adds complex Gaussian noise with the given average power (mW) to x
// and returns a new slice (x is not modified). The signal adds into the
// freshly drawn noise vector — bit-identical to summing the other way,
// one allocation instead of two.
func AWGN(src *rng.Source, x []complex128, noisePowerMW float64) []complex128 {
	n := src.NoiseVector(len(x), noisePowerMW)
	dsp.AddInPlace(n, x)
	return n
}

// NoiseFloorMW returns the standard noise floor in mW.
func NoiseFloorMW() float64 { return dsp.WattsFromDBm(NoiseFloorDBm) * 1000 }

// MIMO is a matrix of SISO channels: Links[r][t] connects transmit antenna
// t to receive antenna r.
type MIMO struct {
	Links [][]*SISO
}

// NewMIMO allocates an nRx×nTx MIMO channel with flat unit links.
func NewMIMO(nRx, nTx int) *MIMO {
	m := &MIMO{Links: make([][]*SISO, nRx)}
	for r := range m.Links {
		m.Links[r] = make([]*SISO, nTx)
		for t := range m.Links[r] {
			m.Links[r][t] = NewFlat(1)
		}
	}
	return m
}

// NRx returns the number of receive antennas.
func (m *MIMO) NRx() int { return len(m.Links) }

// NTx returns the number of transmit antennas.
func (m *MIMO) NTx() int {
	if len(m.Links) == 0 {
		return 0
	}
	return len(m.Links[0])
}

// NewRichScattering returns an i.i.d. Rayleigh MIMO channel (full rank with
// probability 1) with per-link multipath and total per-link average power
// gainLin.
func NewRichScattering(src *rng.Source, nRx, nTx, nTaps int, decay, gainLin float64) *MIMO {
	m := &MIMO{Links: make([][]*SISO, nRx)}
	for r := 0; r < nRx; r++ {
		m.Links[r] = make([]*SISO, nTx)
		for t := 0; t < nTx; t++ {
			m.Links[r][t] = NewRayleigh(src, nTaps, decay, gainLin)
		}
	}
	return m
}

// NewPinhole returns a keyhole/pinhole MIMO channel: every Tx-Rx antenna
// pair propagates through the same single path (a corridor, door or
// window — Sec 1), making the channel matrix the rank-one outer product
// a·bᵀ at every frequency. gainLin is the average power gain per link.
func NewPinhole(src *rng.Source, nRx, nTx, nTaps int, decay, gainLin float64) *MIMO {
	// Shared propagation path.
	shared := NewRayleigh(src, nTaps, decay, 1)
	// Antenna coupling vectors (unit-magnitude phases, as from closely
	// spaced antennas seeing the same path at different phase offsets).
	a := make([]complex128, nRx)
	for i := range a {
		a[i] = src.UniformPhase()
	}
	b := make([]complex128, nTx)
	for i := range b {
		b[i] = src.UniformPhase()
	}
	amp := complex(math.Sqrt(gainLin), 0)
	m := &MIMO{Links: make([][]*SISO, nRx)}
	for r := 0; r < nRx; r++ {
		m.Links[r] = make([]*SISO, nTx)
		for t := 0; t < nTx; t++ {
			taps := make([]complex128, len(shared.Taps))
			coup := a[r] * b[t] * amp
			for d, tap := range shared.Taps {
				taps[d] = tap * coup
			}
			m.Links[r][t] = &SISO{Taps: taps}
		}
	}
	return m
}

// FrequencyResponse returns the nRx×nTx channel matrix at logical
// subcarrier k of an nfft-point system.
func (m *MIMO) FrequencyResponse(k, nfft int) *linalg.Matrix {
	h := linalg.NewMatrix(m.NRx(), m.NTx())
	for r := 0; r < m.NRx(); r++ {
		for t := 0; t < m.NTx(); t++ {
			h.Set(r, t, m.Links[r][t].FrequencyResponse(k, nfft))
		}
	}
	return h
}

// AverageGain returns the mean per-link power gain.
func (m *MIMO) AverageGain() float64 {
	var g float64
	n := 0
	for _, row := range m.Links {
		for _, l := range row {
			g += l.Gain()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return g / float64(n)
}

// Scale multiplies every link by amplitude a and returns m.
func (m *MIMO) Scale(a float64) *MIMO {
	for _, row := range m.Links {
		for _, l := range row {
			l.Scale(a)
		}
	}
	return m
}
