package golden

import (
	"math"
	"testing"
)

func TestULPs(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		a, b float64
		want uint64
	}{
		{1, 1, 0},
		{0, math.Copysign(0, -1), 0},
		{1, math.Nextafter(1, 2), 1},
		{math.Nextafter(1, 2), 1, 1},
		{-1, math.Nextafter(-1, -2), 1},
		{tiny, -tiny, 2},
		{1, math.Nextafter(math.Nextafter(1, 0), 0), 2},
	} {
		if got := ulps(tc.a, tc.b); got != tc.want {
			t.Errorf("ulps(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
