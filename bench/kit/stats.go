package kit

import (
	"math"
	"sort"
)

// Quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so the spread ffbench -repeat reports is the one
// that script computes from the same values. It needs two values.
func Quartiles(xs []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Ratio divides, reading 0 when nothing was measured (den == 0): the
// value of a share or rate on a workload that never enters the layer.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
