package floorplan

import (
	"math"
	"math/cmplx"

	"fastforward/internal/channel"
	"fastforward/internal/rng"
)

// Physical constants.
const (
	// SpeedOfLight in meters/second.
	SpeedOfLight = 299792458.0
	// CarrierHz is the 2.45 GHz ISM carrier used throughout.
	CarrierHz = 2.45e9
	// fsplAt1m is the free-space path loss at 1 m for 2.45 GHz.
	fsplAt1m = 40.05
)

// Path is one propagation path between two points.
type Path struct {
	// DistanceM is the total geometric path length in meters.
	DistanceM float64
	// LossDB is the total path loss (free space + penetration +
	// reflection) in dB.
	LossDB float64
	// DelayS is the propagation delay in seconds.
	DelayS float64
	// AoDRad and AoARad are the departure/arrival angles (radians) for
	// array steering.
	AoDRad, AoARad float64
	// Reflections counts specular bounces (0 = direct path).
	Reflections int
}

// AmplitudeGain returns the linear amplitude gain of the path, with the
// carrier phase of its exact delay.
func (p Path) AmplitudeGain() complex128 {
	amp := math.Pow(10, -p.LossDB/20)
	phase := -2 * math.Pi * CarrierHz * p.DelayS
	return cmplx.Rect(amp, math.Mod(phase, 2*math.Pi))
}

// Plan is a floor plan: a bounding box plus interior and exterior walls.
type Plan struct {
	// Width and Height are the plan extents in meters (origin bottom-left).
	Width, Height float64
	// Walls are all wall segments.
	Walls []Wall
}

// Trace enumerates propagation paths from tx to rx with up to maxRefl
// specular reflections (0, 1 or 2). Paths weaker than minGainDB below the
// strongest are discarded.
func (pl *Plan) Trace(tx, rx Point, maxRefl int) []Path {
	var paths []Path

	direct := pl.directPath(tx, rx)
	paths = append(paths, direct)

	if maxRefl >= 1 {
		for wi := range pl.Walls {
			if p, ok := pl.firstOrderPath(tx, rx, wi); ok {
				paths = append(paths, p)
			}
		}
	}
	if maxRefl >= 2 {
		for wi := range pl.Walls {
			for wj := range pl.Walls {
				if wi == wj {
					continue
				}
				if p, ok := pl.secondOrderPath(tx, rx, wi, wj); ok {
					paths = append(paths, p)
				}
			}
		}
	}
	// Prune paths more than 40 dB below the strongest.
	best := math.Inf(1)
	for _, p := range paths {
		if p.LossDB < best {
			best = p.LossDB
		}
	}
	pruned := paths[:0]
	for _, p := range paths {
		if p.LossDB <= best+40 {
			pruned = append(pruned, p)
		}
	}
	return pruned
}

// fspl is the distance-dependent loss per path. Line-of-sight paths decay
// near free space with light clutter; obstructed paths (any wall crossed)
// additionally follow the steep exponent-4 dual-slope fit of obstructed
// indoor propagation at 2.4 GHz, representing the floor/ceiling scatter,
// furniture and people a 2-D wall model cannot see. Wall penetration and
// reflection losses are added separately by the tracer.
func fspl(d float64, obstructed bool) float64 {
	const breakpoint = 3.0
	if d < 0.3 {
		d = 0.3
	}
	loss := fsplAt1m + 20*math.Log10(d)
	if d > breakpoint {
		if obstructed {
			// Extra slope to exponent 4 plus 1.0 dB/m clutter.
			loss += 20*math.Log10(d/breakpoint) + 1.0*(d-breakpoint)
		} else {
			loss += 0.3 * (d - breakpoint)
		}
	}
	return loss
}

func (pl *Plan) directPath(tx, rx Point) Path {
	d := tx.Dist(rx)
	crossed := crossings(pl.Walls, tx, rx, nil)
	loss := fspl(d, len(crossed) > 0)
	for _, wi := range crossed {
		loss += pl.Walls[wi].Material.PenetrationLossDB
	}
	dir := rx.Sub(tx)
	return Path{
		DistanceM: d,
		LossDB:    loss,
		DelayS:    d / SpeedOfLight,
		AoDRad:    dir.Angle(),
		AoARad:    dir.Angle(),
	}
}

func (pl *Plan) firstOrderPath(tx, rx Point, wi int) (Path, bool) {
	w := pl.Walls[wi]
	img := mirror(tx, w)
	rp, ok := reflectionPoint(img, rx, w)
	if !ok {
		return Path{}, false
	}
	d := tx.Dist(rp) + rp.Dist(rx)
	skip := map[int]bool{wi: true}
	c1 := crossings(pl.Walls, tx, rp, skip)
	c2 := crossings(pl.Walls, rp, rx, skip)
	loss := fspl(d, len(c1)+len(c2) > 0) + w.Material.ReflectionLossDB
	for _, ci := range c1 {
		loss += pl.Walls[ci].Material.PenetrationLossDB
	}
	for _, ci := range c2 {
		loss += pl.Walls[ci].Material.PenetrationLossDB
	}
	return Path{
		DistanceM:   d,
		LossDB:      loss,
		DelayS:      d / SpeedOfLight,
		AoDRad:      rp.Sub(tx).Angle(),
		AoARad:      rx.Sub(rp).Angle(),
		Reflections: 1,
	}, true
}

func (pl *Plan) secondOrderPath(tx, rx Point, wi, wj int) (Path, bool) {
	w1, w2 := pl.Walls[wi], pl.Walls[wj]
	img1 := mirror(tx, w1)
	img2 := mirror(img1, w2)
	// Find reflection point on w2 (from img2 toward rx), then on w1.
	rp2, ok := reflectionPoint(img2, rx, w2)
	if !ok {
		return Path{}, false
	}
	rp1, ok := reflectionPoint(img1, rp2, w1)
	if !ok {
		return Path{}, false
	}
	d := tx.Dist(rp1) + rp1.Dist(rp2) + rp2.Dist(rx)
	skip1 := map[int]bool{wi: true}
	skipBoth := map[int]bool{wi: true, wj: true}
	skip2 := map[int]bool{wj: true}
	c1 := crossings(pl.Walls, tx, rp1, skip1)
	c2 := crossings(pl.Walls, rp1, rp2, skipBoth)
	c3 := crossings(pl.Walls, rp2, rx, skip2)
	loss := fspl(d, len(c1)+len(c2)+len(c3) > 0) +
		w1.Material.ReflectionLossDB + w2.Material.ReflectionLossDB
	for _, ci := range c1 {
		loss += pl.Walls[ci].Material.PenetrationLossDB
	}
	for _, ci := range c2 {
		loss += pl.Walls[ci].Material.PenetrationLossDB
	}
	for _, ci := range c3 {
		loss += pl.Walls[ci].Material.PenetrationLossDB
	}
	return Path{
		DistanceM:   d,
		LossDB:      loss,
		DelayS:      d / SpeedOfLight,
		AoDRad:      rp1.Sub(tx).Angle(),
		AoARad:      rx.Sub(rp2).Angle(),
		Reflections: 2,
	}, true
}

// SISOChannel converts traced paths into a tapped-delay-line channel at
// sampleRate, binning each path's delay to the nearest sample (indoor
// delays are mostly sub-sample at 20 Msps) and preserving its carrier
// phase. extraDelayS adds bulk delay (e.g. to place two hops on a common
// timeline).
func SISOChannel(paths []Path, sampleRate, extraDelayS float64) *channel.SISO {
	if len(paths) == 0 {
		return channel.NewFlat(0)
	}
	maxTap := 0
	for _, p := range paths {
		tap := int(math.Round((p.DelayS + extraDelayS) * sampleRate))
		if tap > maxTap {
			maxTap = tap
		}
	}
	taps := make([]complex128, maxTap+1)
	for _, p := range paths {
		tap := int(math.Round((p.DelayS + extraDelayS) * sampleRate))
		taps[tap] += p.AmplitudeGain()
	}
	return &channel.SISO{Taps: taps}
}

// MIMOChannelDiffuse builds an nRx×nTx MIMO channel from traced paths
// using λ/2 uniform linear arrays at both ends. Each path contributes a
// rank-one steering outer product; geometric angle diversity (or its
// absence, in a corridor) determines the resulting rank. On top of it
// goes a diffuse (dense multipath) component: i.i.d. Rayleigh energy
// amounting to diffuseFrac of the total specular path power, spread over
// the first taps. A 2-D specular tracer under-represents the rich 3-D
// scatter (floor/ceiling, furniture) real 2.4 GHz channels always carry;
// ~3% (−15 dB) diffuse power restores the weak second eigen-channel
// observed indoors without materially changing link budgets. src may be
// nil for a purely specular channel.
func MIMOChannelDiffuse(paths []Path, nRx, nTx int, sampleRate float64, src *rng.Source, diffuseFrac float64) *channel.MIMO {
	m := channel.NewMIMO(nRx, nTx)
	maxTap := 0
	for _, p := range paths {
		tap := int(math.Round(p.DelayS * sampleRate))
		if tap > maxTap {
			maxTap = tap
		}
	}
	for r := 0; r < nRx; r++ {
		for t := 0; t < nTx; t++ {
			m.Links[r][t] = &channel.SISO{Taps: make([]complex128, maxTap+1)}
		}
	}
	var totalPow float64
	for _, p := range paths {
		tap := int(math.Round(p.DelayS * sampleRate))
		g := p.AmplitudeGain()
		totalPow += math.Pow(10, -p.LossDB/10)
		for r := 0; r < nRx; r++ {
			ar := steer(p.AoARad, r)
			for t := 0; t < nTx; t++ {
				at := steer(p.AoDRad, t)
				m.Links[r][t].Taps[tap] += g * ar * at
			}
		}
	}
	if src != nil && diffuseFrac > 0 && totalPow > 0 {
		// Spread the diffuse energy over up to the first three taps.
		nTaps := maxTap + 1
		if nTaps > 3 {
			nTaps = 3
		}
		perTap := diffuseFrac * totalPow / float64(nTaps)
		for r := 0; r < nRx; r++ {
			for t := 0; t < nTx; t++ {
				link := m.Links[r][t]
				for d := 0; d < nTaps && d < len(link.Taps); d++ {
					link.Taps[d] += src.ComplexGaussian(perTap)
				}
			}
		}
	}
	return m
}

// steer returns the phase of array element idx of a λ/2-spaced linear
// array for a wave at angle theta.
func steer(theta float64, idx int) complex128 {
	return cmplx.Exp(complex(0, -math.Pi*float64(idx)*math.Sin(theta)))
}

// GainDB returns the aggregate power gain over all paths in dB (coherent
// sum at the carrier — what a narrowband measurement would see).
func GainDB(paths []Path) float64 {
	var acc complex128
	for _, p := range paths {
		acc += p.AmplitudeGain()
	}
	g := real(acc)*real(acc) + imag(acc)*imag(acc)
	if g <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(g)
}

// AveragePowerGainDB returns the incoherent (average over small-scale
// fading) power gain: the sum of per-path powers. Less pessimistic than
// coherent summing for coverage maps.
func AveragePowerGainDB(paths []Path) float64 {
	var g float64
	for _, p := range paths {
		g += math.Pow(10, -p.LossDB/10)
	}
	if g <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(g)
}
