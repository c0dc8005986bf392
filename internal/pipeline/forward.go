package pipeline

import "fastforward/internal/dsp"

// NewForwardStages builds the relay's forward path of Fig 3 — causal
// digital self-interference cancellation, CFO removal, the CNF
// pre-filter, CFO restoration, and amplification — from the canceller's
// leakage estimate, the pre-filter taps, the per-sample CFO rotation
// 2π·CFO/fs, and the power amplification in dB. It is the one builder of
// that path: the relay device (relay.New), the relay daemon
// (relayd.BuildSessionChain) and the session sweep all run these stages.
// The cancel stage is also returned on its own, because its reference
// (the transmitted samples) must be supplied before each block.
func NewForwardStages(cancelTaps, preTaps []complex128, cfoStepRad, ampDB float64) ([]Stage, *CancelStage) {
	cancel := NewCancelStage("cancel", cancelTaps)
	return []Stage{
		cancel,
		NewCFOStage("cfo_remove", -cfoStepRad),
		NewFIRStage("cnf_pre", preTaps),
		NewCFOStage("cfo_restore", cfoStepRad),
		NewGainStage("amp", complex(dsp.AmplitudeFromDB(ampDB), 0)),
	}, cancel
}

// SessionStageNames lists the NewForwardStages stage names in chain
// order, read off a built path so the list cannot drift from the
// constructor. An instrumented session chain times each stage as
// pipeline.<chain>.<stage> (pipeline.relayd.<stage> in the relay daemon,
// pipeline.sessions.<stage> in the session sweep).
func SessionStageNames() []string {
	stages, _ := NewForwardStages([]complex128{0}, []complex128{1}, 0, 0)
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.Name()
	}
	return names
}
