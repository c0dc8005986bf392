package cnf

import "fastforward/internal/linalg"

// The 2×2 prototype needs one analog construct-and-forward board per
// antenna pair (Sec 5: "we require four RF analog construct-and-forward
// boards") plus a digital pre-filter per pair. SynthesizeMIMO realizes a
// per-subcarrier K×K filter as that matrix of digital+analog cascades.

// MIMOFilterImpl is the implementable K×K constructive filter: one
// FilterImpl per (output antenna, input antenna) pair.
type MIMOFilterImpl struct {
	// Pairs[out][in] is the cascade filtering input antenna `in` into
	// output antenna `out`.
	Pairs [][]*FilterImpl
}

// SynthesizeMIMO fits each entry of the desired per-subcarrier filter
// matrices (FA[s].At(i,j) across subcarriers s) with a digital+analog
// cascade, exactly as the SISO synthesis does per pair. The pairs share
// one carrier set, so they share one synthesis workspace.
func SynthesizeMIMO(FA []*linalg.Matrix, carriers []int, nfft int, sampleRate float64) *MIMOFilterImpl {
	if len(FA) == 0 {
		return &MIMOFilterImpl{}
	}
	if len(FA) != len(carriers) {
		panic("cnf: SynthesizeMIMO length mismatch")
	}
	rows, cols := FA[0].Rows, FA[0].Cols
	w := newSynthWork(carriers, nfft, sampleRate, PreFilterTaps)
	desired := make([]complex128, len(FA))
	impl := &MIMOFilterImpl{Pairs: make([][]*FilterImpl, rows)}
	for i := 0; i < rows; i++ {
		impl.Pairs[i] = make([]*FilterImpl, cols)
		for j := 0; j < cols; j++ {
			for s := range FA {
				desired[s] = FA[s].At(i, j)
			}
			impl.Pairs[i][j] = w.synthesize(desired)
		}
	}
	return impl
}

// ApplyImplementation returns the per-subcarrier matrix response of the
// synthesized K×K filter at the given carriers.
func (m *MIMOFilterImpl) ApplyImplementation(carriers []int, nfft int, sampleRate float64) []*linalg.Matrix {
	if len(m.Pairs) == 0 {
		return nil
	}
	rows := len(m.Pairs)
	cols := len(m.Pairs[0])
	out := make([]*linalg.Matrix, len(carriers))
	for s, k := range carriers {
		f := float64(k) * sampleRate / float64(nfft)
		mat := linalg.NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				mat.Set(i, j, m.Pairs[i][j].Response(f))
			}
		}
		out[s] = mat
	}
	return out
}

// WorstFitErrorDB returns the worst per-pair synthesis residual in dB.
func (m *MIMOFilterImpl) WorstFitErrorDB() float64 {
	worst := -300.0
	for _, row := range m.Pairs {
		for _, f := range row {
			if f.FitErrorDB > worst {
				worst = f.FitErrorDB
			}
		}
	}
	return worst
}

// LatencyS returns the worst-case pair latency (all pairs share the same
// structure, so this equals any single pair's latency).
func (m *MIMOFilterImpl) LatencyS() float64 {
	var worst float64
	for _, row := range m.Pairs {
		for _, f := range row {
			if l := f.LatencyS(); l > worst {
				worst = l
			}
		}
	}
	return worst
}

// TapEnergy returns the summed digital-tap energy across all antenna
// pairs (see FilterImpl.TapEnergy) — the MIMO form of cnf.tap_energy.
func (m *MIMOFilterImpl) TapEnergy() float64 {
	var e float64
	for _, row := range m.Pairs {
		for _, f := range row {
			e += f.TapEnergy()
		}
	}
	return e
}
