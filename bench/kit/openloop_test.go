package kit

import (
	"testing"
	"time"

	"fastforward/internal/relayd"
)

// TestOpenLoopCountsFromDueTime drives a real relayd.Client over a daemon
// conn that stalls every block for longer than the offered period. A
// closed-loop timer around Process would read the stall (5 ms) for every
// block; the open-loop latency must also charge each block the backlog
// queued ahead of it, so block k reads at least stall + k·(stall −
// period).
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const (
		block  = 64
		period = 2 * time.Millisecond
		stall  = 5 * time.Millisecond
		n      = 6
	)
	fake := newFakeDaemon(10)
	fake.delay = stall
	c, err := relayd.NewClientConnTimeout(fake, testParams(block), 0)
	if err != nil {
		t.Fatal(err)
	}
	in := SeededBlocks(3, 4, block)
	out := make([]complex128, block)
	start := time.Now()
	var rtts []time.Duration
	st := OpenLoop(start, period, start.Add(n*period-period/2), func() (time.Time, error) {
		rx, ref := in.At(len(rtts))
		t0 := time.Now()
		err := c.Process(out, rx, ref)
		done := time.Now()
		rtts = append(rtts, done.Sub(t0))
		return done, err
	})
	if len(st.LatencyUS) != n {
		t.Fatalf("issued %d blocks, want %d", len(st.LatencyUS), n)
	}
	for k, failed := range st.Failed {
		if failed {
			t.Fatalf("block %d failed", k)
		}
	}
	for k, lat := range st.LatencyUS {
		floor := float64(stall+time.Duration(k)*(stall-period)) / 1e3
		if lat < floor {
			t.Errorf("block %d: latency %.0f µs from its due time, want at least %.0f", k, lat, floor)
		}
		if k > 0 && st.LagUS[k] < float64(time.Duration(k)*(stall-period))/1e3 {
			t.Errorf("block %d: sent %.0f µs late, want the backlog counted", k, st.LagUS[k])
		}
		if rtt := float64(rtts[k]) / 1e3; k > 1 && lat <= rtt+float64(stall-period)/1e3 {
			t.Errorf("block %d: latency %.0f µs is no more than its round trip %.0f µs", k, lat, rtt)
		}
	}
	if late := st.Late(period); late != n {
		t.Errorf("Late(period) = %d, want all %d", late, n)
	}
}

func TestOpenLoopKeepsScheduleWhenFast(t *testing.T) {
	start := time.Now()
	period := 3 * time.Millisecond
	var sent []time.Time
	st := OpenLoop(start, period, start.Add(4*period), func() (time.Time, error) {
		now := time.Now()
		sent = append(sent, now)
		return now, nil
	})
	if len(sent) != 4 {
		t.Fatalf("issued %d ops, want 4", len(sent))
	}
	for k, s := range sent {
		if due := start.Add(time.Duration(k) * period); s.Before(due) {
			t.Errorf("op %d sent %v before its due time", k, due.Sub(s))
		}
	}
	if st.Late(period) != 0 {
		t.Errorf("fast ops counted late: %d", st.Late(period))
	}
}
