package kit

import "time"

// NominalPassUS is the reference pass time, in microseconds, that ffbench
// scales its times to: about what one pass takes on the 2-vCPU host the
// benchmark was built on, in its full-speed spells.
const NominalPassUS = 100.0

// refSamples and refTaps size the reference kernel.
const (
	refSamples = 4096
	refTaps    = 16
)

// RefKernel is a fixed piece of work — a 16-tap complex FIR over 4096
// samples — written here rather than taken from the repository, so no
// change to the code under test changes its cost. Timing it next to a
// workload measures how fast the machine runs at that moment.
type RefKernel struct {
	in, out, taps []complex128
	sink          complex128
}

// NewRefKernel builds the kernel's fixed inputs.
func NewRefKernel() *RefKernel {
	k := &RefKernel{in: make([]complex128, refSamples), out: make([]complex128, refSamples), taps: make([]complex128, refTaps)}
	for i := range k.in {
		k.in[i] = complex(float64(i%17)-8, float64(i%5)-2)
	}
	for j := range k.taps {
		k.taps[j] = complex(1/float64(j+2), -1/float64(j+3))
	}
	return k
}

// Pass runs the kernel once.
func (k *RefKernel) Pass() {
	for i := refTaps; i < refSamples; i++ {
		var y complex128
		for j, h := range k.taps {
			y += h * k.in[i-j]
		}
		k.out[i] = y
	}
	k.sink += k.out[refSamples-1]
}

// Times runs passes until dur has passed and returns each one's duration
// in microseconds.
func (k *RefKernel) Times(dur time.Duration) []float64 {
	var out []float64
	for end := time.Now().Add(dur); time.Now().Before(end); {
		t0 := time.Now()
		k.Pass()
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out
}
