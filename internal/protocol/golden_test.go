package protocol

import (
	"testing"

	"fastforward/internal/golden"
	"fastforward/internal/wifi"
)

// TestSessionGolden pins the whole Sec 4.2 control loop on three seeded
// sessions: the learned amplification, every component of the three
// denoised channel estimates and of the fitted pre-filter, and how many
// relayed MCS4 frames then decode.
func TestSessionGolden(t *testing.T) {
	got := map[string]float64{}
	for _, seed := range []int64{2, 3, 5} {
		s := newTestSession(seed)
		if err := s.RunSoundingExchange(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got[golden.Key("session", seed, "amp_db")] = s.AmplificationDB()
		hsd, hsr, hrd := s.EstimatedChannels()
		for _, est := range []struct {
			name string
			h    []complex128
		}{{"hsd", hsd}, {"hsr", hsr}, {"hrd", hrd}, {"taps", s.filterTaps}} {
			for i, v := range est.h {
				got[golden.Key("session", seed, est.name, i, "re")] = real(v)
				got[golden.Key("session", seed, est.name, i, "im")] = imag(v)
			}
		}
		n, err := s.DeliverData(make([]byte, 80), wifi.MCSList()[4], 3, true)
		if err != nil {
			t.Fatal(err)
		}
		got[golden.Key("session", seed, "delivered")] = float64(n)
	}
	golden.Check(t, "testdata/session_golden.json", got)
}
