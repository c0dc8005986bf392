package kit

import "time"

// OpenLoopStats is what one open-loop generator observed. Latency counts
// from each operation's due time, not from when it was sent, so a stall
// is charged to every operation queued behind it; Lag is how late the
// generator sent each operation.
type OpenLoopStats struct {
	LatencyUS []float64
	LagUS     []float64
	Failed    []bool
}

// OpenLoop issues op on a fixed schedule: operation k is due at
// start + k·period, for every due time before deadline. An operation is
// sent at its due time, or at once if the previous one is still
// outstanding, so a slow op builds a backlog instead of slowing the
// offered rate. op returns when its operation completed, so bookkeeping
// it does afterwards is not charged to the latency.
func OpenLoop(start time.Time, period time.Duration, deadline time.Time, op func() (time.Time, error)) OpenLoopStats {
	var st OpenLoopStats
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(deadline) {
			return st
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		done, err := op()
		st.LagUS = append(st.LagUS, float64(sent.Sub(due))/1e3)
		st.LatencyUS = append(st.LatencyUS, float64(done.Sub(due))/1e3)
		st.Failed = append(st.Failed, err != nil)
	}
}

// Late counts operations that failed or completed more than limit after
// their due time.
func (st OpenLoopStats) Late(limit time.Duration) int {
	n := 0
	for i, l := range st.LatencyUS {
		if st.Failed[i] || l > float64(limit)/1e3 {
			n++
		}
	}
	return n
}
