package testbed

import (
	"math"
	"testing"

	"fastforward/internal/floorplan"
	"fastforward/internal/golden"
	"fastforward/internal/impair"
)

// goldenClients are fixed home-scenario locations. Under the harsh profile
// at seed 1 they span every sounding outcome: a fresh filter (3.2, 0.7),
// filters held stale for two and four intervals (5.7, 0.7) and
// (13.2, 0.7), and a relay that lost its filter and amplifies blindly
// (0.7, 5.7). TestEvaluateClientGolden asserts that spread, so the pin
// cannot silently stop covering a branch.
var goldenClients = []floorplan.Point{
	{X: 3.2, Y: 0.7}, {X: 5.7, Y: 0.7}, {X: 13.2, Y: 0.7},
	{X: 0.7, Y: 5.7}, {X: 5.7, Y: 5.7}, {X: 3.2, Y: 8.2},
}

// TestEvaluateClientGolden pins every field of EvaluateClient's
// Evaluation, bit for bit on amd64, for SISO and MIMO, ideal and
// synthesized CNF, with and without impairments. Anything that reaches a
// client's rates (channels, filter design, relayed-path algebra, noise
// accounting, the fault model) is pinned here; a deliberate change
// re-baselines with -update.
func TestEvaluateClientGolden(t *testing.T) {
	harsh, _ := impair.ByName("harsh")
	sc := floorplan.Scenarios()[0]

	var stale, blind int
	probe := New(sc, coarse(1))
	for _, pt := range goldenClients {
		st := probe.soundingState(&harsh, clientSeed(1, pt), 0)
		switch {
		case st.blind:
			blind++
		case st.rho < harsh.AgingRho():
			stale++
		}
	}
	if stale == 0 || blind == 0 {
		t.Fatalf("golden clients under harsh: %d stale, %d blind; want at least one of each", stale, blind)
	}

	got := map[string]float64{}
	for _, link := range []struct {
		name string
		mimo bool
	}{{"siso", false}, {"mimo", true}} {
		for _, filter := range []struct {
			name  string
			synth bool
		}{{"ideal_cnf", false}, {"synth_cnf", true}} {
			for _, imp := range []struct {
				name string
				p    *impair.Profile
			}{{"ideal", nil}, {"harsh", &harsh}} {
				cfg := coarse(1)
				cfg.MIMO = link.mimo
				cfg.SynthesizedFilter = filter.synth
				cfg.Impair = imp.p
				tb := New(sc, cfg)
				for i, pt := range goldenClients {
					recordEvaluation(got, golden.Key(link.name, filter.name, imp.name, i), tb.EvaluateClient(pt))
				}
			}
		}
	}
	golden.Check(t, "testdata/evaluate_client_golden.json", got)
}

// recordEvaluation flattens ev into got under prefix. A non-finite SNR
// (no usable stream) is recorded as its sign under a separate key, since
// golden vectors hold finite values only.
func recordEvaluation(got map[string]float64, prefix string, ev Evaluation) {
	put := func(k string, v float64) { got[golden.Key(prefix, k)] = v }
	put("x", ev.Location.X)
	put("y", ev.Location.Y)
	put("ap_only_mbps", ev.APOnlyMbps)
	put("half_duplex_mbps", ev.HalfDuplexMbps)
	put("relay_mbps", ev.RelayMbps)
	if math.IsInf(ev.APOnlySNRdB, 0) {
		put("ap_only_snr_db_inf", math.Copysign(1, ev.APOnlySNRdB))
	} else {
		put("ap_only_snr_db", ev.APOnlySNRdB)
	}
	put("ap_only_streams", float64(ev.APOnlyStreams))
	put("relay_streams", float64(ev.RelayStreams))
	put("ap_only_rank", float64(ev.APOnlyRank))
	put("relay_rank", float64(ev.RelayRank))
	put("class", float64(ev.Class))
}
