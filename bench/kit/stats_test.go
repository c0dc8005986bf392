package kit

import "testing"

// TestQuartilesMatchPython pins Quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{1.5, 2.5, 10, -4, 7, 7, 0.25}, [3]float64{0.25, 2.5, 7}},
	} {
		q1, med, q3 := Quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("Quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
