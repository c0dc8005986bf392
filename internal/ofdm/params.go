// Package ofdm implements the 20 MHz OFDM physical layer that both the
// simulated WiFi endpoints and the FastForward analyses are built on: a
// 64-point FFT with a 400 ns (8-sample) cyclic prefix and 56 used
// subcarriers (52 data + 4 pilots), matching the paper's prototype PHY
// (Sec 4.3). It provides symbol modulation/demodulation, the 802.11
// short/long training fields, packet detection, carrier-frequency-offset
// estimation and correction, LTF channel estimation and pilot-tracked
// equalization.
package ofdm

import "math"

// Params describes the OFDM numerology. All lengths are in samples at
// SampleRate.
type Params struct {
	// NFFT is the FFT length (subcarrier count including unused bins).
	NFFT int
	// CPLen is the cyclic prefix length in samples.
	CPLen int
	// SampleRate in samples/second (equals the channel bandwidth for
	// critically sampled OFDM).
	SampleRate float64
	// DataCarriers lists the logical subcarrier indices (negative and
	// positive, excluding DC) that carry data symbols.
	DataCarriers []int
	// PilotCarriers lists the subcarrier indices carrying pilots.
	PilotCarriers []int
	// PilotValues holds the BPSK pilot symbol for each pilot carrier.
	PilotValues []complex128
}

// Default20MHz returns the paper's PHY: 20 Msps, 64-point FFT, 8-sample
// (400 ns) cyclic prefix, 56 used subcarriers of which 4 are pilots
// (±7, ±21, as in 802.11).
func Default20MHz() *Params {
	p := &Params{
		NFFT:          64,
		CPLen:         8,
		SampleRate:    20e6,
		PilotCarriers: []int{-21, -7, 7, 21},
		PilotValues:   []complex128{1, 1, 1, -1},
	}
	for k := -28; k <= 28; k++ {
		if k == 0 || k == -21 || k == -7 || k == 7 || k == 21 {
			continue
		}
		p.DataCarriers = append(p.DataCarriers, k)
	}
	return p
}

// LTE20MHz returns an LTE-like numerology: 30.72 Msps, 2048-point FFT
// (15 kHz subcarrier spacing), 1200 used subcarriers and a 144-sample
// (4.69 µs) normal cyclic prefix. The paper's constructive relaying is
// OFDM-generic (Sec 1: "applicable to any OFDM based standard"); the long
// LTE CP gives the relay more than ten times WiFi's latency budget. No
// sweep runs LTE: this is the fixture behind that Sec 1 claim, pinned by
// TestLTERelayLatencyBudget, TestLTECPAbsorbsLongMultipath and
// TestLTEParams.
func LTE20MHz() *Params {
	p := &Params{
		NFFT:       2048,
		CPLen:      144,
		SampleRate: 30.72e6,
	}
	// Cell-specific reference signals stand in for pilots: every 50th
	// subcarrier.
	for k := -600; k <= 600; k++ {
		if k == 0 {
			continue
		}
		if k%50 == 0 {
			p.PilotCarriers = append(p.PilotCarriers, k)
			p.PilotValues = append(p.PilotValues, 1)
			continue
		}
		p.DataCarriers = append(p.DataCarriers, k)
	}
	return p
}

// NumData returns the number of data subcarriers per OFDM symbol.
func (p *Params) NumData() int { return len(p.DataCarriers) }

// NumUsed returns the total used (data+pilot) subcarrier count.
func (p *Params) NumUsed() int { return len(p.DataCarriers) + len(p.PilotCarriers) }

// SymbolLen returns the length of one OFDM symbol with CP, in samples.
func (p *Params) SymbolLen() int { return p.NFFT + p.CPLen }

// SymbolDuration returns the duration of one OFDM symbol (with CP) in
// seconds.
func (p *Params) SymbolDuration() float64 {
	return float64(p.SymbolLen()) / p.SampleRate
}

// CPDuration returns the cyclic prefix duration in seconds (400 ns for the
// default PHY).
func (p *Params) CPDuration() float64 {
	return float64(p.CPLen) / p.SampleRate
}

// SubcarrierSpacing returns the spacing between adjacent subcarriers in Hz.
func (p *Params) SubcarrierSpacing() float64 {
	return p.SampleRate / float64(p.NFFT)
}

// bin maps a logical subcarrier index (…,-2,-1,1,2,…) to an FFT bin.
func (p *Params) bin(k int) int {
	if k >= 0 {
		return k
	}
	return p.NFFT + k
}

// UsedCarriers returns all used subcarrier indices (data then pilots),
// sorted ascending.
func (p *Params) UsedCarriers() []int {
	out := make([]int, 0, p.NumUsed())
	out = append(out, p.DataCarriers...)
	out = append(out, p.PilotCarriers...)
	sortInts(out)
	return out
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// MaxDelaySpreadSeconds returns the largest extra multipath delay the CP
// absorbs without inter-symbol interference.
func (p *Params) MaxDelaySpreadSeconds() float64 { return p.CPDuration() }

// Validate checks internal consistency of the parameters.
func (p *Params) Validate() error {
	switch {
	case p.NFFT <= 0 || p.NFFT&(p.NFFT-1) != 0:
		return errParams("NFFT must be a positive power of two")
	case p.CPLen < 0 || p.CPLen >= p.NFFT:
		return errParams("CPLen must be in [0, NFFT)")
	case p.SampleRate <= 0:
		return errParams("SampleRate must be positive")
	case len(p.PilotCarriers) != len(p.PilotValues):
		return errParams("pilot carriers and values must align")
	}
	seen := map[int]bool{0: true}
	for _, k := range p.UsedCarriers() {
		if k <= -p.NFFT/2 || k >= p.NFFT/2 {
			return errParams("subcarrier index out of range")
		}
		if seen[k] {
			return errParams("duplicate subcarrier index")
		}
		seen[k] = true
	}
	return nil
}

type errParams string

func (e errParams) Error() string { return "ofdm: " + string(e) }

// GuardFeet converts the CP duration to the equivalent propagation distance
// in feet (c = 983,571,056 ft/s); the paper quotes ~400 ft for WiFi.
func (p *Params) GuardFeet() float64 {
	const feetPerSecond = 983571056.4
	return p.CPDuration() * feetPerSecond
}

// Ceil returns the least integer >= x as an int.
func Ceil(x float64) int { return int(math.Ceil(x)) }
