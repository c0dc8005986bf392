package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"fastforward/bench/kit"
	"fastforward/internal/stats"
)

// probeDur is how long one speed probe runs the reference kernel.
const probeDur = 150 * time.Millisecond

// probe runs the reference kernel on every CPU at once for probeDur and
// returns the mean pass time in microseconds.
func probe(nproc int) float64 {
	parts := make([][]float64, nproc)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = kit.NewRefKernel().Times(probeDur)
		}(i)
	}
	wg.Wait()
	var sum float64
	var n int
	for _, p := range parts {
		for _, x := range p {
			sum += x
		}
		n += len(p)
	}
	return sum / float64(n)
}

// setupBatch is how many set-ups end each segment.
const setupBatch = 10

// speedClock scales the times of consecutive measuring segments to the
// nominal machine speed. It probes before the first segment and after
// each one; a segment's factor is kit.NominalPassUS over the mean of the
// probes on either side of it. The workload is idle while a probe runs,
// so the probe sees the machine, not the workload's demand on it.
//
// At each segment's end, before the probe, it also times a batch of the
// workload's set-ups, scaled by the segment's factor, and samples the
// resident set. Set-up takes well under a millisecond to a few, so a
// batch at a single moment would read the machine's speed at that
// moment; batches spread over the whole run read it as the run's other
// metrics do.
type speedClock struct {
	nproc int
	// setup sets the workload up once, tears it down, and returns how long
	// the set-up took.
	setup  func() (time.Duration, error)
	prev   float64
	probes []float64
	rssMB  []float64
	setups []float64 // scaled, in seconds
}

func newSpeedClock(nproc int, setup func() (time.Duration, error)) *speedClock {
	c := &speedClock{nproc: nproc, setup: setup}
	c.restart()
	return c
}

// restart probes again, for a segment that does not follow the last one.
func (c *speedClock) restart() {
	c.prev = probe(c.nproc)
	c.probes = append(c.probes, c.prev)
}

// segment ends a segment with its set-up batch and a probe, and returns
// the segment's factor: a time measured in it, multiplied by the factor,
// is the time at the nominal speed; a rate is divided by it.
func (c *speedClock) segment() (float64, error) {
	var raw [setupBatch]time.Duration
	for i := range raw {
		var err error
		if raw[i], err = c.setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
	}
	// Collect and return free pages first, so the resident set is what
	// the workload keeps, not how far the collector happened to lag.
	debug.FreeOSMemory()
	c.rssMB = append(c.rssMB, kit.RSSMB())
	p := probe(c.nproc)
	c.probes = append(c.probes, p)
	f := kit.NominalPassUS / ((c.prev + p) / 2)
	c.prev = p
	for _, d := range raw {
		c.setups = append(c.setups, d.Seconds()*f)
	}
	return f, nil
}

// setupS is the median scaled set-up time, setup_s.
func (c *speedClock) setupS() float64 { return stats.Median(c.setups) }

// meanPass is the mean of every probe so far, in microseconds.
func (c *speedClock) meanPass() float64 {
	var sum float64
	for _, p := range c.probes {
		sum += p
	}
	return sum / float64(len(c.probes))
}

// rss is the median resident set at the segment ends, in MB: the
// process's footprint in steady operation. The peak is left out of it
// because under a collector that runs hundreds of times a second it
// depends on when a cycle happened to fall behind; so would any resident
// set read without the collection before it.
func (c *speedClock) rss() float64 { return stats.Median(c.rssMB) }
