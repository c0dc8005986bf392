package ofdm

import (
	"fmt"

	"fastforward/internal/fft"
)

// Modulator converts data symbols to OFDM time-domain waveforms.
type Modulator struct {
	p *Params
}

// NewModulator returns a modulator for the given numerology.
func NewModulator(p *Params) *Modulator { return &Modulator{p: p} }

// Symbol maps one OFDM symbol's data constellation points (len == NumData,
// ordered by ascending subcarrier index in DataCarriers) plus the standard
// pilots into a CP-prefixed time-domain symbol of SymbolLen samples.
func (m *Modulator) Symbol(data []complex128) ([]complex128, error) {
	p := m.p
	if len(data) != p.NumData() {
		return nil, fmt.Errorf("ofdm: got %d data symbols, want %d", len(data), p.NumData())
	}
	bins := make([]complex128, p.NFFT)
	for i, k := range p.DataCarriers {
		bins[p.bin(k)] = data[i]
	}
	for i, k := range p.PilotCarriers {
		bins[p.bin(k)] = p.PilotValues[i]
	}
	td := fft.Inverse(bins)
	return addCP(td, p.CPLen), nil
}

// Burst modulates a sequence of OFDM symbols back to back. data must hold a
// multiple of NumData constellation points.
func (m *Modulator) Burst(data []complex128) ([]complex128, error) {
	nd := m.p.NumData()
	if len(data)%nd != 0 {
		return nil, fmt.Errorf("ofdm: burst of %d symbols is not a whole number of OFDM symbols", len(data))
	}
	nSym := len(data) / nd
	out := make([]complex128, 0, nSym*m.p.SymbolLen())
	for s := 0; s < nSym; s++ {
		sym, err := m.Symbol(data[s*nd : (s+1)*nd])
		if err != nil {
			return nil, err
		}
		out = append(out, sym...)
	}
	return out, nil
}

func addCP(td []complex128, cp int) []complex128 {
	out := make([]complex128, 0, len(td)+cp)
	out = append(out, td[len(td)-cp:]...)
	out = append(out, td...)
	return out
}

// Demodulator recovers subcarrier values from time-domain OFDM symbols.
type Demodulator struct {
	p *Params
}

// NewDemodulator returns a demodulator for the given numerology.
func NewDemodulator(p *Params) *Demodulator { return &Demodulator{p: p} }

// Symbol demodulates one CP-prefixed symbol (SymbolLen samples) and returns
// the raw (unequalized) data-subcarrier values and pilot-subcarrier values.
func (d *Demodulator) Symbol(samples []complex128) (data, pilots []complex128, err error) {
	p := d.p
	if len(samples) < p.SymbolLen() {
		return nil, nil, fmt.Errorf("ofdm: symbol needs %d samples, got %d", p.SymbolLen(), len(samples))
	}
	bins := fft.Forward(samples[p.CPLen : p.CPLen+p.NFFT])
	data = make([]complex128, p.NumData())
	for i, k := range p.DataCarriers {
		data[i] = bins[p.bin(k)]
	}
	pilots = make([]complex128, len(p.PilotCarriers))
	for i, k := range p.PilotCarriers {
		pilots[i] = bins[p.bin(k)]
	}
	return data, pilots, nil
}
