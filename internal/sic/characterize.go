package sic

import (
	"fastforward/internal/dsp"
	"fastforward/internal/obs"
	"fastforward/internal/rng"
)

// Characterization is the Sec 3.3 cancellation chain measured at one
// simulated relay placement: analog-stage tuning quality (continuous fit
// vs the quantized attenuator grid), the digital stage's residual, and the
// total — the numbers the paper reports as ~70 dB analog / 108–110 dB
// total.
type Characterization struct {
	// AnalogDB is the tuned (quantized) analog-stage cancellation.
	AnalogDB float64
	// UnquantizedDB is the continuous NNLS fit before quantization — the
	// analog tuner's ceiling at this placement.
	UnquantizedDB float64
	// TotalDB is analog + digital cancellation against the raw SI power.
	TotalDB float64
	// DigitalResidualDBm is the absolute residual power after the digital
	// stage (the paper's noise-floor target is −90 dBm).
	DigitalResidualDBm float64
	// TuneIterations counts the analog tuner's coordinate-descent sweeps.
	TuneIterations int
}

// CharacterizeConfig sizes a characterization run. The zero value is not
// useful; start from DefaultCharacterizeConfig.
type CharacterizeConfig struct {
	// Trials is the number of independent relay placements.
	Trials int
	// BandwidthHz and NFreq sample the tuning band.
	BandwidthHz float64
	NFreq       int
	// ResidualTaps is the sample-domain FIR length used to realize the
	// post-analog residual channel.
	ResidualTaps int
	// DigitalTaps is the digital canceller length for the cleanup stage.
	DigitalTaps int
	// Samples is the probe length for digital estimation/measurement.
	Samples int
	// TxPowerMW and NoiseMW set the link budget (paper: 20 dBm over a
	// −90 dBm floor).
	TxPowerMW, NoiseMW float64
}

// DefaultCharacterizeConfig is the setup behind the Sec 3.3 numbers that
// cmd/ffsim -fig cancel prints.
func DefaultCharacterizeConfig(trials int) CharacterizeConfig {
	return CharacterizeConfig{
		Trials:       trials,
		BandwidthHz:  20e6,
		NFreq:        16,
		ResidualTaps: 16,
		DigitalTaps:  24,
		Samples:      8000,
		TxPowerMW:    100,  // 20 dBm
		NoiseMW:      1e-9, // -90 dBm
	}
}

// Characterize runs the full cancellation chain over cfg.Trials simulated
// relay placements drawn serially from src, records the sic.* metrics into
// reg (nil disables recording), and returns the per-placement results.
// cmd/ffsim's one sic.characterize stage runs through here, so a
// manifest's sic.analog_db is measured by exactly the code the Sec 3.3
// characterization (-fig cancel) prints.
func Characterize(src *rng.Source, cfg CharacterizeConfig, reg *obs.Registry) []Characterization {
	analogHist := reg.Histogram("sic.analog_db", "dB", obs.LinearBuckets(0, 5, 24))
	unquantHist := reg.Histogram("sic.analog_unquantized_db", "dB", obs.LinearBuckets(0, 5, 24))
	totalHist := reg.Histogram("sic.total_db", "dB", obs.LinearBuckets(0, 5, 24))
	residHist := reg.Histogram("sic.digital_residual_dbm", "dBm", obs.LinearBuckets(-120, 10, 16))
	placements := reg.Counter("sic.tune_placements", "placements")
	iterations := reg.Counter("sic.tune_iterations", "sweeps")

	out := make([]Characterization, 0, cfg.Trials)
	for i := 0; i < cfg.Trials; i++ {
		si := NewTypicalSIChannel(src)
		a := NewAnalogCanceller(1.0)
		analogDB := a.Tune(si, cfg.BandwidthHz, cfg.NFreq)

		residual := a.ResidualFIR(si, cfg.BandwidthHz, cfg.ResidualTaps, 2)
		tx := src.NoiseVector(cfg.Samples, cfg.TxPowerMW)
		noise := src.NoiseVector(cfg.Samples, cfg.NoiseMW)
		// A streaming FIR from zero state is bit-exact with
		// dsp.FilterSame (identical summation order).
		leak := make([]complex128, len(tx))
		copy(leak, tx)
		dsp.NewFIR(residual).FilterBlock(leak)
		dsp.AddInPlace(leak, noise) // leak is locally owned: sum in place
		rx := leak
		c := Characterization{
			AnalogDB:       analogDB,
			UnquantizedDB:  a.LastTune.UnquantizedDB,
			TuneIterations: a.LastTune.RefineIterations,
		}
		est, err := EstimateFIR(tx, rx, cfg.DigitalTaps, 0)
		if err == nil {
			clean := NewDigitalCanceller(est).Process(tx, rx)
			residualMW := dsp.Power(clean)
			c.TotalDB = MeasureCancellationDB(dsp.Power(tx), residualMW)
			c.DigitalResidualDBm = dsp.DB(residualMW)
		}
		out = append(out, c)

		shard := obs.ShardForSeed(int64(i))
		analogHist.Observe(shard, c.AnalogDB)
		unquantHist.Observe(shard, c.UnquantizedDB)
		totalHist.Observe(shard, c.TotalDB)
		residHist.Observe(shard, c.DigitalResidualDBm)
		placements.Inc(shard)
		iterations.Add(shard, uint64(c.TuneIterations))
	}
	return out
}
