package floorplan

import (
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/channel"
)

func TestGeometryBasics(t *testing.T) {
	p := Point{3, 4}
	if p.Norm() != 5 {
		t.Errorf("Norm = %v", p.Norm())
	}
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Errorf("Dist = %v", d)
	}
	if a := (Point{0, 1}).Angle(); math.Abs(a-math.Pi/2) > 1e-12 {
		t.Errorf("Angle = %v", a)
	}
}

func TestSegmentIntersection(t *testing.T) {
	// Crossing segments.
	tt, ok := segmentIntersection(Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0})
	if !ok || math.Abs(tt-0.5) > 1e-12 {
		t.Errorf("intersection t=%v ok=%v", tt, ok)
	}
	// Parallel.
	if _, ok := segmentIntersection(Point{0, 0}, Point{1, 0}, Point{0, 1}, Point{1, 1}); ok {
		t.Error("parallel segments should not intersect")
	}
	// Disjoint.
	if _, ok := segmentIntersection(Point{0, 0}, Point{1, 1}, Point{5, 5}, Point{6, 4}); ok {
		t.Error("disjoint segments should not intersect")
	}
}

func TestMirror(t *testing.T) {
	w := Wall{A: Point{0, 0}, B: Point{10, 0}} // x axis
	m := mirror(Point{3, 4}, w)
	if math.Abs(m.X-3) > 1e-12 || math.Abs(m.Y+4) > 1e-12 {
		t.Errorf("mirror = %v", m)
	}
}

func TestDirectPathFreeSpace(t *testing.T) {
	p := &Plan{Width: 100, Height: 100} // no walls
	paths := p.Trace(Point{10, 10}, Point{20, 10}, 0)
	if len(paths) != 1 {
		t.Fatalf("%d paths, want 1", len(paths))
	}
	// Unobstructed path: free space plus 0.3 dB/m clutter beyond 3 m.
	want := 40.05 + 20*math.Log10(10.0) + 0.3*7
	if math.Abs(paths[0].LossDB-want) > 0.01 {
		t.Errorf("loss %v, want %v", paths[0].LossDB, want)
	}
	wantDelay := 10.0 / SpeedOfLight
	if math.Abs(paths[0].DelayS-wantDelay) > 1e-12 {
		t.Errorf("delay %v, want %v", paths[0].DelayS, wantDelay)
	}
}

func TestWallPenetrationAddsLoss(t *testing.T) {
	p := &Plan{Width: 20, Height: 20}
	p.wall(Point{5, 0}, Point{5, 20}, Concrete)
	free := (&Plan{Width: 20, Height: 20}).Trace(Point{1, 10}, Point{9, 10}, 0)[0]
	blocked := p.Trace(Point{1, 10}, Point{9, 10}, 0)[0]
	// Crossing the wall adds its penetration loss plus the obstructed-path
	// propagation penalty (steeper slope and heavier clutter).
	d := 8.0
	obstructedExtra := 20*math.Log10(d/3) + 1.0*(d-3) - 0.3*(d-3)
	want := Concrete.PenetrationLossDB + obstructedExtra
	if diff := blocked.LossDB - free.LossDB; math.Abs(diff-want) > 0.01 {
		t.Errorf("wall added %v dB, want %v", diff, want)
	}
}

func TestFirstOrderReflection(t *testing.T) {
	// Single wall along y=10; tx and rx below it. Reflection path length is
	// the image distance.
	p := &Plan{Width: 20, Height: 20}
	p.wall(Point{0, 10}, Point{20, 10}, Drywall)
	tx, rx := Point{5, 5}, Point{15, 5}
	paths := p.Trace(tx, rx, 1)
	if len(paths) != 2 {
		t.Fatalf("%d paths, want 2 (direct + reflection)", len(paths))
	}
	refl := paths[1]
	// Image of tx across y=10 is (5,15); distance to rx = sqrt(100+100).
	wantDist := math.Hypot(10, 10)
	if math.Abs(refl.DistanceM-wantDist) > 1e-9 {
		t.Errorf("reflection distance %v, want %v", refl.DistanceM, wantDist)
	}
	if refl.Reflections != 1 {
		t.Error("reflection count wrong")
	}
	if refl.LossDB <= paths[0].LossDB {
		t.Error("reflected path should be weaker than direct")
	}
}

func TestReflectionRequiresSegmentHit(t *testing.T) {
	// Wall too short for the mirror geometry: no reflection path.
	p := &Plan{Width: 40, Height: 20}
	p.wall(Point{0, 10}, Point{2, 10}, Drywall) // far to the left
	paths := p.Trace(Point{20, 5}, Point{30, 5}, 1)
	if len(paths) != 1 {
		t.Fatalf("%d paths, want only direct", len(paths))
	}
}

func TestSecondOrderReflection(t *testing.T) {
	// Two parallel walls: a double bounce exists.
	p := &Plan{Width: 20, Height: 20}
	p.wall(Point{0, 0}, Point{20, 0}, Drywall)
	p.wall(Point{0, 10}, Point{20, 10}, Drywall)
	paths := p.Trace(Point{5, 5}, Point{15, 5}, 2)
	found := false
	for _, pp := range paths {
		if pp.Reflections == 2 {
			found = true
			if pp.DistanceM <= 10 {
				t.Error("double bounce cannot be shorter than direct")
			}
		}
	}
	if !found {
		t.Error("no second-order path found between parallel walls")
	}
}

func TestHomeLayoutSNRTopology(t *testing.T) {
	// The key qualitative property of Fig 1: coverage degrades from the AP
	// corner toward the far bedrooms.
	plan := Home()
	ap := HomeAP()
	near := plan.Trace(ap, Point{3, 2}, 2)
	mid := plan.Trace(ap, Point{7, 7}, 2)
	far := plan.Trace(ap, Point{12, 12}, 2)
	gNear := AveragePowerGainDB(near)
	gMid := AveragePowerGainDB(mid)
	gFar := AveragePowerGainDB(far)
	if !(gNear > gMid && gMid > gFar) {
		t.Errorf("gain not monotone: near %v mid %v far %v", gNear, gMid, gFar)
	}
	// With 20 dBm TX and -90 dBm floor, the far bedroom should be in the
	// poor-SNR regime the paper shows (<15 dB), the near zone rich (>35 dB).
	snrNear := channel.TxPowerDBm - (-gNear) - channel.NoiseFloorDBm
	snrFar := channel.TxPowerDBm - (-gFar) - channel.NoiseFloorDBm
	if snrNear < 35 {
		t.Errorf("near SNR %v dB too low", snrNear)
	}
	if snrFar > 25 {
		t.Errorf("far SNR %v dB too high for a dead-ish zone", snrFar)
	}
}

func TestScenariosWellFormed(t *testing.T) {
	for _, sc := range Scenarios() {
		if sc.Plan == nil || len(sc.Plan.Walls) < 4 {
			t.Errorf("%s: missing walls", sc.Name)
		}
		if !sc.Plan.Contains(sc.AP) || !sc.Plan.Contains(sc.Relay) {
			t.Errorf("%s: AP or relay outside plan", sc.Name)
		}
		// AP-relay link must be usable (relay placement sanity).
		paths := sc.Plan.Trace(sc.AP, sc.Relay, 2)
		g := AveragePowerGainDB(paths)
		snr := channel.TxPowerDBm + g - channel.NoiseFloorDBm
		if snr < 15 {
			t.Errorf("%s: AP-relay SNR %v dB too poor for a relay deployment", sc.Name, snr)
		}
	}
}

func TestSISOChannelFromPaths(t *testing.T) {
	paths := []Path{
		{DistanceM: 3, LossDB: 50, DelayS: 10e-9},
		{DistanceM: 30, LossDB: 70, DelayS: 100e-9},
	}
	c := SISOChannel(paths, 20e6, 0)
	// 10ns -> tap 0; 100ns -> tap 2.
	if len(c.Taps) != 3 {
		t.Fatalf("taps = %d, want 3", len(c.Taps))
	}
	if cmplx.Abs(c.Taps[0]) == 0 || cmplx.Abs(c.Taps[2]) == 0 {
		t.Error("taps not populated at binned delays")
	}
	wantG := math.Pow(10, -5) + math.Pow(10, -7)
	if math.Abs(c.Gain()-wantG) > 1e-9 {
		t.Errorf("gain %v, want %v", c.Gain(), wantG)
	}
}

func TestMIMOChannelRankFollowsGeometry(t *testing.T) {
	// Two paths with well-separated angles -> rank 2; a single path -> rank 1.
	rich := []Path{
		{LossDB: 50, DelayS: 10e-9, AoDRad: 0.3, AoARad: -0.7},
		{LossDB: 51, DelayS: 15e-9, AoDRad: -1.1, AoARad: 1.2},
	}
	m := MIMOChannelDiffuse(rich, 2, 2, 20e6, nil, 0)
	h := m.FrequencyResponse(5, 64)
	sv := h.SingularValues()
	if sv[1]/sv[0] < 0.05 {
		t.Errorf("angle-diverse paths should give usable rank 2: sv=%v", sv)
	}

	pinhole := []Path{{LossDB: 50, DelayS: 10e-9, AoDRad: 0.4, AoARad: 0.9}}
	m2 := MIMOChannelDiffuse(pinhole, 2, 2, 20e6, nil, 0)
	h2 := m2.FrequencyResponse(5, 64)
	sv2 := h2.SingularValues()
	if sv2[1]/sv2[0] > 1e-9 {
		t.Errorf("single path must be rank one: sv=%v", sv2)
	}
}

func TestCorridorCreatesPinhole(t *testing.T) {
	// In the L-corridor scenario, a client deep in the walled room reached
	// mainly through the doorway should have a much more rank-deficient
	// channel than a line-of-sight client.
	plan := LCorridor()
	ap := LCorridorAP()
	losClient := Point{6, 1.2}  // same corridor as AP
	roomClient := Point{5, 7.0} // inside the concrete-walled room
	losPaths := plan.Trace(ap, losClient, 2)
	roomPaths := plan.Trace(ap, roomClient, 2)
	mLos := MIMOChannelDiffuse(losPaths, 2, 2, 20e6, nil, 0)
	mRoom := MIMOChannelDiffuse(roomPaths, 2, 2, 20e6, nil, 0)
	condLos := mLos.FrequencyResponse(3, 64).ConditionNumber()
	condRoom := mRoom.FrequencyResponse(3, 64).ConditionNumber()
	// The room client's matrix should be clearly worse conditioned.
	if condRoom < condLos {
		t.Errorf("expected corridor pinhole to degrade conditioning: LOS cond=%v room cond=%v",
			condLos, condRoom)
	}
}

func TestGrid(t *testing.T) {
	p := &Plan{Width: 10, Height: 5}
	pts := p.Grid(1, 0.5)
	if len(pts) == 0 {
		t.Fatal("no grid points")
	}
	for _, pt := range pts {
		if pt.X < 0.5 || pt.X > 9.5 || pt.Y < 0.5 || pt.Y > 4.5 {
			t.Fatalf("grid point %v outside margins", pt)
		}
	}
}

func TestGridPanicsOnNonPositiveSpacing(t *testing.T) {
	p := &Plan{Width: 10, Height: 5}
	for _, spacing := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Grid(%v, 0.5) returned; want a panic", spacing)
				}
			}()
			p.Grid(spacing, 0.5)
		}()
	}
}

func TestPathAmplitudeGain(t *testing.T) {
	p := Path{LossDB: 60, DelayS: 33e-9}
	g := p.AmplitudeGain()
	if math.Abs(cmplx.Abs(g)-1e-3) > 1e-12 {
		t.Errorf("|gain| = %v, want 1e-3", cmplx.Abs(g))
	}
}
