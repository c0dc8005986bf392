package relayd

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fastforward/internal/relay"
)

// gateBudget is a comfortable Sec 3.5 budget: high cancellation, strong
// R->D attenuation, generous PA headroom.
func gateBudget() relay.SessionBudget {
	return relay.SessionBudget{
		CancellationDB: 110,
		RDAttenDB:      60,
		PAHeadroomDB:   40,
		RxOverNoiseDB:  30,
	}
}

// referenceSession is a mid-range placement: finite cancellation, enough
// path loss for the noise rule to bind before the PA does.
var referenceSession = relay.SessionBudget{
	CancellationDB: 80,
	RDAttenDB:      60,
	PAHeadroomDB:   40,
	RxOverNoiseDB:  50,
}

// TestGateSingleSessionMatchesResidualRule pins the ledger to the
// device-level rule: the first admission into an empty gate must be
// bit-identical to relay.ChooseAmplificationResidualDB at zero load, and
// a useless placement is refused.
func TestGateSingleSessionMatchesResidualRule(t *testing.T) {
	cases := []relay.SessionBudget{
		referenceSession,
		{CancellationDB: 60, RDAttenDB: 70, PAHeadroomDB: 25, RxOverNoiseDB: 65},
		{CancellationDB: math.Inf(1), RDAttenDB: 55, PAHeadroomDB: 30, RxOverNoiseDB: 40}, // ideal canceller: β = 0
		{CancellationDB: 95, RDAttenDB: 40, PAHeadroomDB: 10, RxOverNoiseDB: 30},          // PA-bound
		{CancellationDB: 20, RDAttenDB: 80, PAHeadroomDB: 50, RxOverNoiseDB: 60},          // cancellation-bound
		{CancellationDB: 2, RDAttenDB: 1, PAHeadroomDB: 1, RxOverNoiseDB: 10},             // floor clamp
	}
	for i, s := range cases {
		want := relay.ChooseAmplificationResidualDB(s, 0, true)
		got, degraded, ref := NewGate(0, 0, false).Admit("s0", s)
		if want.Bound == relay.AmpBoundFloor {
			if ref == nil {
				t.Errorf("case %d: floor-clamped placement admitted at %+v", i, got)
			}
			continue
		}
		if ref != nil || degraded {
			t.Fatalf("case %d: unexpected refusal %+v (degraded=%v)", i, ref, degraded)
		}
		if got != want {
			t.Errorf("case %d: single-session admit = %+v, ChooseAmplificationResidualDB = %+v", i, got, want)
		}
	}
}

// TestGateLoadMonotonicity admits identical sessions one after another
// and checks the physics: every later grant is no larger than the one
// before (each admission raises the shared floor), and the residual load
// strictly grows. Strict admission may refuse before the loop ends —
// sticky earlier grants become infeasible as the floor rises — which is
// the policy working, not a failure; at least two must fit first.
func TestGateLoadMonotonicity(t *testing.T) {
	g := NewGate(0, 0, false)
	prevAmp := math.Inf(1)
	prevLoad := -1.0
	admitted := 0
	for i := 0; i < 8; i++ {
		dec, _, ref := g.Admit(strconv.Itoa(i), referenceSession)
		if ref != nil {
			if !strings.HasPrefix(ref.Detail, "relay budget: member_violation ") {
				t.Fatalf("admit %d: %+v", i, ref)
			}
			break
		}
		admitted++
		if dec.AmpDB > prevAmp+ampSlackDB {
			t.Fatalf("admit %d granted %.6f dB > previous %.6f dB: floor load must not raise grants", i, dec.AmpDB, prevAmp)
		}
		if l := g.ResidualLoad(); l <= prevLoad {
			t.Fatalf("admit %d: residual load %.6g did not grow from %.6g", i, l, prevLoad)
		} else {
			prevLoad = l
		}
		prevAmp = dec.AmpDB
	}
	if admitted < 2 {
		t.Fatalf("only %d sessions admitted; the reference placement should share the floor at least once", admitted)
	}
}

// TestGateMemberProtection checks the strict policy refuses a candidate
// whose residual would invalidate an existing grant, that the refusal
// names the protected member, and that it leaves the gate unchanged.
func TestGateMemberProtection(t *testing.T) {
	g := NewGate(0, 0, false)
	first, _, ref := g.Admit("first", referenceSession)
	if ref != nil {
		t.Fatalf("admit first: %+v", ref)
	}
	// A pathological candidate: enormous residual per amp unit.
	monster := relay.SessionBudget{CancellationDB: 10, RDAttenDB: 90, PAHeadroomDB: 60, RxOverNoiseDB: 70}
	_, _, ref = g.Admit("monster", monster)
	if ref == nil || ref.Code != RefuseBudget {
		t.Fatalf("monster admission: refusal %+v, want code %q", ref, RefuseBudget)
	}
	if want := `relay budget: member_violation (session "first", `; !strings.HasPrefix(ref.Detail, want) {
		t.Fatalf("monster refusal detail %q, want prefix %q", ref.Detail, want)
	}
	if got, ok := g.Decision("first"); !ok || got != first {
		t.Fatalf("first member's grant changed after refusal: %+v vs %+v", got, first)
	}
	if g.Sessions() != 1 {
		t.Fatalf("Sessions() = %d after refusal, want 1", g.Sessions())
	}
}

// TestGateSessionLimit checks the cap refusal code and that Release
// reopens the slot.
func TestGateSessionLimit(t *testing.T) {
	g := NewGate(2, 0, false)
	for i := 0; i < 2; i++ {
		if _, _, ref := g.Admit(strconv.Itoa(i), gateBudget()); ref != nil {
			t.Fatalf("session %d refused: %+v", i, ref)
		}
	}
	_, _, ref := g.Admit("2", gateBudget())
	if ref == nil || ref.Code != RefuseSessionLimit {
		t.Fatalf("over-cap admit: got %+v, want code %q", ref, RefuseSessionLimit)
	}
	if !g.Release("0") {
		t.Fatal("Release(0) = false for admitted session")
	}
	if _, _, ref := g.Admit("2", gateBudget()); ref != nil {
		t.Fatalf("admit after release refused: %+v", ref)
	}
	if g.Sessions() != 2 {
		t.Fatalf("Sessions() = %d, want 2", g.Sessions())
	}
}

// tightSession is a marginal budget whose grants load the shared floor
// heavily; with minAmpDB pinned 2 dB under its solo grant, a strict gate
// refuses after four admissions and degrade rescues exactly one more.
func tightSession() (relay.SessionBudget, float64) {
	s := relay.SessionBudget{CancellationDB: 70, RDAttenDB: 60, PAHeadroomDB: 40, RxOverNoiseDB: 40}
	return s, relay.ChooseAmplificationResidualDB(s, 0, true).AmpDB - 2
}

// TestGateBudgetRefusal drives the aggregate budget to refusal with
// marginal sessions and checks the wire code.
func TestGateBudgetRefusal(t *testing.T) {
	tight, minAmp := tightSession()
	g := NewGate(0, minAmp, false)
	refused := false
	for i := 0; i < 64 && !refused; i++ {
		_, _, ref := g.Admit(strconv.Itoa(i), tight)
		if ref != nil {
			if ref.Code != RefuseBudget {
				t.Fatalf("refusal code %q, want %q (detail %q)", ref.Code, RefuseBudget, ref.Detail)
			}
			refused = true
		}
	}
	if !refused {
		t.Fatal("64 marginal sessions all admitted; budget refusal never hit")
	}
}

// TestGateRefusalAtBoundary raises the admission threshold so the strict
// gate fills after a few sessions, checks the refusal's code and reason,
// and checks a Release reopens exactly one slot.
func TestGateRefusalAtBoundary(t *testing.T) {
	// A noisy session: high rx/n0 against modest cancellation gives a
	// large β, so each admission eats the budget quickly.
	s := relay.SessionBudget{CancellationDB: 55, RDAttenDB: 50, PAHeadroomDB: 40, RxOverNoiseDB: 52}
	alone := relay.ChooseAmplificationResidualDB(s, 0, true)
	// Refuse anything more than 2 dB below the solo grant.
	g := NewGate(0, alone.AmpDB-2, false)
	admitted := 0
	var refusal *Refuse
	for i := 0; i < 64 && refusal == nil; i++ {
		if _, _, refusal = g.Admit(strconv.Itoa(i), s); refusal == nil {
			admitted++
		}
	}
	if refusal == nil {
		t.Fatal("64 identical noisy sessions all admitted; expected a budget refusal")
	}
	if admitted == 0 {
		t.Fatal("first session refused; threshold should admit at least one")
	}
	if refusal.Code != RefuseBudget {
		t.Fatalf("refusal code %q, want %q (detail %q)", refusal.Code, RefuseBudget, refusal.Detail)
	}
	if !strings.HasPrefix(refusal.Detail, "relay budget: below_min_amp ") &&
		!strings.HasPrefix(refusal.Detail, "relay budget: member_violation ") {
		t.Fatalf("refusal detail %q, want below_min_amp or member_violation", refusal.Detail)
	}
	if g.Sessions() != admitted {
		t.Fatalf("Sessions() = %d, want %d", g.Sessions(), admitted)
	}
	// Releasing one member reopens exactly one slot for the same session.
	if !g.Release("0") {
		t.Fatal("Release of admitted session reported false")
	}
	if _, _, ref := g.Admit("reopened", s); ref != nil {
		t.Fatalf("admit after release: %+v", ref)
	}
	if _, _, ref := g.Admit("overflow", s); ref == nil {
		t.Fatal("admission past the released slot should refuse again")
	}
}

// TestGateDegrade checks the degrade policy against the strict one on the
// same marginal sessions: identical grants while the strict gate admits,
// then at least one further grant, bisected (degraded, AmpBoundBudget,
// not below minAmpDB), that leaves every member's sticky grant within
// its recomputed bound.
func TestGateDegrade(t *testing.T) {
	tight, minAmp := tightSession()
	strict := NewGate(0, minAmp, false)
	soft := NewGate(0, minAmp, true)
	n := 0
	for ; n < 64; n++ {
		want, _, ref := strict.Admit(strconv.Itoa(n), tight)
		if ref != nil {
			break
		}
		dec, degraded, ref := soft.Admit(strconv.Itoa(n), tight)
		if ref != nil || degraded || dec != want {
			t.Fatalf("soft admit %d = %+v (degraded=%v, refuse %+v), strict %+v", n, dec, degraded, ref, want)
		}
	}
	dec, degraded, ref := soft.Admit("extra", tight)
	if ref != nil {
		t.Fatalf("degrade refused the session after the strict refusal point: %+v", ref)
	}
	if !degraded || dec.Bound != relay.AmpBoundBudget {
		t.Fatalf("grant past the strict refusal point %+v (degraded=%v), want a degraded budget grant", dec, degraded)
	}
	if dec.AmpDB < minAmp-ampSlackDB {
		t.Fatalf("degraded grant %.6f dB below MinAmpDB %.6f", dec.AmpDB, minAmp)
	}
	if i, _ := soft.violatedMember(0); i >= 0 {
		t.Fatalf("member %d violated after degraded admission", i)
	}
}

// TestGateConcurrent hammers one gate from several goroutines under
// -race: admissions must stay within the cap and every grant must be
// retrievable until released.
func TestGateConcurrent(t *testing.T) {
	const cap = 8
	g := NewGate(cap, 0, false)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				id := strconv.Itoa(w*32 + i)
				if _, _, ref := g.Admit(id, gateBudget()); ref == nil {
					if _, ok := g.Decision(id); !ok {
						t.Errorf("admitted %s has no decision", id)
					}
					if n := g.Sessions(); n > cap {
						t.Errorf("active %d exceeds cap %d", n, cap)
					}
					g.Release(id)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := g.Sessions(); n != 0 {
		t.Fatalf("Sessions() = %d after all releases, want 0", n)
	}
}

// TestGateDegradeNeverAttenuates checks the degrade policy's bisection
// floor is 0 dB even when minAmpDB is negative: a candidate no positive
// grant can fit is refused with member_violation, as the strict policy
// refuses it, rather than granted attenuation (AmpDecision.AmpDB >= 0).
func TestGateDegradeNeverAttenuates(t *testing.T) {
	member := relay.SessionBudget{CancellationDB: 100, RDAttenDB: 60, PAHeadroomDB: 20, RxOverNoiseDB: 30}
	for _, rx := range []float64{70, 80} {
		cand := relay.SessionBudget{CancellationDB: 30, RDAttenDB: 60, PAHeadroomDB: 40, RxOverNoiseDB: rx}
		for _, degrade := range []bool{false, true} {
			g := NewGate(0, -30, degrade)
			if dec, _, ref := g.Admit("member", member); ref != nil || dec.Bound != relay.AmpBoundPALimit {
				t.Fatalf("member: grant %+v refuse %+v, want a pa_limit grant", dec, ref)
			}
			dec, degraded, ref := g.Admit("cand", cand)
			if ref == nil {
				t.Fatalf("rx/n0 %v degrade=%v: granted %+v (degraded=%v), want a refusal", rx, degrade, dec, degraded)
			}
			if want := `relay budget: member_violation (session "member"`; ref.Code != RefuseBudget || !strings.HasPrefix(ref.Detail, want) {
				t.Fatalf("rx/n0 %v degrade=%v: refusal %+v, want code %q and detail %q...", rx, degrade, ref, RefuseBudget, want)
			}
			if g.Sessions() != 1 {
				t.Fatalf("rx/n0 %v degrade=%v: %d sessions after the refusal, want 1", rx, degrade, g.Sessions())
			}
		}
	}
}
