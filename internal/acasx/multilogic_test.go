package acasx

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// multiTestOwn is a level ownship heading +X used by the fusion tests.
func multiTestOwn() uav.State {
	return uav.State{
		Pos: geom.Vec3{X: 0, Y: 0, Z: 0},
		Vel: geom.Velocity{Gs: 45, Psi: 0, Vs: 0},
	}
}

// headOnTrack returns an intruder track closing head-on from range r with
// vertical offset z and vertical speed vs.
func headOnTrack(r, z, vs float64) geom.Track {
	return geom.Track{
		Pos: geom.Vec3{X: r, Y: 0, Z: z},
		Vel: geom.Vec3{X: -45, Y: 0, Z: vs},
	}
}

// oneTrack wraps a single intruder track: the pairwise (K=1) encounter.
func oneTrack(pos, vel geom.Vec3) []geom.Track {
	return []geom.Track{{Pos: pos, Vel: vel}}
}

// TestDecideWorstCaseFusion: with two threats inside the horizon the
// fused choice must be the maximin advisory — argmax over actions of the
// minimum per-threat Q value.
func TestDecideWorstCaseFusion(t *testing.T) {
	table := getCoarseTable(t)
	own := multiTestOwn()
	// A vertical sandwich: one threat just above and descending, one just
	// below and climbing, both close enough to be inside the horizon.
	tracks := []geom.Track{
		headOnTrack(700, 25, -2),
		headOnTrack(650, -25, 2),
	}

	// Expected fusion, computed from the public per-threat queries.
	var fused [NumAdvisories]float64
	for a := range fused {
		fused[a] = math.Inf(1)
	}
	ownVel := own.VelVec()
	threats := 0
	for _, tr := range tracks {
		h := tr.Pos.Z - own.Pos.Z
		tau := effectiveTau(&table.cfg, own.Pos, ownVel, tr.Pos, tr.Vel, h, ownVel.Z, tr.Vel.Z)
		if tau >= float64(table.Horizon()) {
			t.Fatalf("test geometry leaves threat outside the horizon (tau %v)", tau)
		}
		var q [NumAdvisories]float64
		table.AllQValues(&q, tau, h, ownVel.Z, tr.Vel.Z, COC)
		for a := range fused {
			if q[a] < fused[a] {
				fused[a] = q[a]
			}
		}
		threats++
	}
	want, ok := bestAllowed(&fused, SenseMask{})
	if !ok {
		t.Fatal("empty mask banned everything")
	}

	logic := NewLogic(table)
	got := logic.Decide(own, tracks, SenseMask{})
	if got.Advisory != want {
		t.Fatalf("fused advisory %v, want maximin %v (fused Q %v)", got.Advisory, want, fused)
	}
	// The most urgent threat (closest, hence smallest tau) supplies Tau/H.
	if got.H != tracks[1].Pos.Z-own.Pos.Z {
		t.Fatalf("reported H %v does not match the most urgent threat", got.H)
	}
}

// TestDecideHoldsUntilClearOfAll: an active advisory must not drop
// while any intruder is still converging, even if every threat has left the
// table horizon.
func TestDecideHoldsUntilClearOfAll(t *testing.T) {
	table := getCoarseTable(t)
	logic := NewLogic(table)
	own := multiTestOwn()

	// Drive the executive into an alert with a close sandwich.
	in := []geom.Track{headOnTrack(500, 20, -2), headOnTrack(480, -20, 2)}
	d := logic.Decide(own, in, SenseMask{})
	if !d.Alerting {
		t.Fatal("close sandwich did not alert")
	}

	// Both threats far away but still converging (head-on): hold.
	far := []geom.Track{headOnTrack(12000, 20, 0), headOnTrack(12500, -20, 0)}
	d = logic.Decide(own, far, SenseMask{})
	if !d.Alerting {
		t.Fatal("advisory dropped while intruders still converging")
	}

	// Both diverging behind the ownship: clear of all, advisory ends.
	gone := []geom.Track{
		{Pos: geom.Vec3{X: -3000, Y: 0, Z: 20}, Vel: geom.Vec3{X: -45, Y: 0, Z: 0}},
		{Pos: geom.Vec3{X: -3200, Y: 0, Z: -20}, Vel: geom.Vec3{X: -45, Y: 0, Z: 0}},
	}
	d = logic.Decide(own, gone, SenseMask{})
	if d.Alerting {
		t.Fatal("advisory held after every intruder cleared")
	}
}

// TestDecideZeroAlloc: both executives' decision cycle — one track and a
// fused three-track sandwich, alerting — must not allocate; it runs once
// per aircraft per decision period in every validation workload.
func TestDecideZeroAlloc(t *testing.T) {
	table := getCoarseTable(t)
	belief, err := NewBeliefLogic(table, DefaultBeliefSigmas())
	if err != nil {
		t.Fatal(err)
	}
	own := multiTestOwn()
	tracks := []geom.Track{headOnTrack(700, 25, -2), headOnTrack(650, -25, 2), headOnTrack(900, 5, 0)}
	for _, ex := range []struct {
		name string
		d    decider
	}{{"point", NewLogic(table)}, {"belief", belief}} {
		for _, k := range []int{1, 3} {
			if d := ex.d.Decide(own, tracks[:k], SenseMask{}); !d.Alerting {
				t.Fatalf("%s k=%d: test geometry does not alert", ex.name, k)
			}
			allocs := testing.AllocsPerRun(100, func() {
				ex.d.Decide(own, tracks[:k], SenseMask{})
			})
			if allocs != 0 {
				t.Errorf("%s k=%d: Decide allocates %.1f times per cycle, want 0", ex.name, k, allocs)
			}
		}
	}
}

// pairwiseRef is an independent reference for the one-track decision
// cycle: the pairwise executive written out for a single intruder, with
// its own table query (choose) instead of the fused cycle's.
type pairwiseRef struct {
	table     *Table
	advisory  Advisory
	alerts    int
	reversals int
	choose    func(tau, h, dh0, dh1 float64, ra Advisory, mask SenseMask) (Advisory, bool)
}

func (p *pairwiseRef) decide(own uav.State, tr geom.Track, mask SenseMask) Decision {
	ownVel := own.VelVec()
	h := tr.Pos.Z - own.Pos.Z
	tau := effectiveTau(&p.table.cfg, own.Pos, ownVel, tr.Pos, tr.Vel, h, ownVel.Z, tr.Vel.Z)
	prev := p.advisory
	next := COC
	if tau < float64(p.table.Horizon()) {
		if best, ok := p.choose(tau, h, ownVel.Z, tr.Vel.Z, prev, mask); ok {
			next = best
		}
	}
	if next == COC && prev != COC {
		// Hold until the intruder is horizontally diverging outside DMOD.
		dp := tr.Pos.Sub(own.Pos).Horizontal()
		if dp.Norm() <= p.table.cfg.DMOD || !(dp.Dot(tr.Vel.Sub(ownVel).Horizontal()) > 0) {
			next = prev
		}
	}
	p.advisory = next
	d := Decision{Advisory: next, Tau: tau, H: h, Alerting: next != COC}
	if prev == COC && next != COC {
		d.NewAlert = true
		p.alerts++
	}
	if prev.Sense() != SenseNone && next.Sense() != SenseNone && prev.Sense() != next.Sense() {
		d.Reversal = true
		p.reversals++
	}
	if next.Strengthened() && !prev.Strengthened() && prev.Sense() == next.Sense() {
		d.Strengthening = true
	}
	return d
}

// checkSingleTrackMatchesPairwise drives ex and ref through a head-on
// closure and then a seeded stream of noisy one-intruder encounters under
// all four masks, with advisory state carried between decisions, and
// requires identical decisions and carried state throughout.
func checkSingleTrackMatchesPairwise(t *testing.T, ex interface {
	decider
	Reversals() int
}, ref *pairwiseRef, z, vs float64) {
	t.Helper()
	check := func(where string, own uav.State, tr geom.Track, mask SenseMask) {
		t.Helper()
		want := ref.decide(own, tr, mask)
		got := ex.Decide(own, []geom.Track{tr}, mask)
		if got != want {
			t.Fatalf("%s: one-track Decide %+v != pairwise %+v", where, got, want)
		}
		if ex.Alerts() != ref.alerts || ex.Advisory() != ref.advisory || ex.Reversals() != ref.reversals {
			t.Fatalf("%s: state diverged: alerts %d/%d advisory %v/%v reversals %d/%d", where,
				ex.Alerts(), ref.alerts, ex.Advisory(), ref.advisory, ex.Reversals(), ref.reversals)
		}
	}
	own := multiTestOwn()
	alerting := 0
	for step := 0; step < 40; step++ {
		r := 1800 - 45*2*float64(step) // closing head-on at 90 m/s
		check(fmt.Sprintf("head-on step %d", step), own, headOnTrack(r, z, vs), SenseMask{})
		if ex.Advisory() != COC {
			alerting++
		}
	}
	if alerting == 0 {
		t.Fatal("head-on closure never alerted")
	}

	rng := rand.New(rand.NewPCG(5, 1))
	tracks := make([]geom.Track, 1)
	var enc goldenEncounter
	for i := 0; i < 2000; i++ {
		if i%40 == 0 {
			ex.Reset()
			ref.advisory, ref.alerts, ref.reversals = COC, 0, 0
			enc = newGoldenEncounter(rng, 1)
		}
		enc.step(rng, tracks)
		check(fmt.Sprintf("stream decision %d", i), enc.own, tracks[0], goldenMasks[rng.IntN(len(goldenMasks))])
	}
}

// TestDecideMultiSingleTrackMatchesDecide: the point executive's one-track
// cycle (the pairwise encounter, K=1) must reproduce the pairwise decision
// taken through the table's own shared-weight BestAdvisory query, with the
// same advisory/alert state evolution.
func TestDecideMultiSingleTrackMatchesDecide(t *testing.T) {
	table := getCoarseTable(t)
	ref := &pairwiseRef{table: table, choose: table.BestAdvisory}
	checkSingleTrackMatchesPairwise(t, NewLogic(table), ref, 20, -1)
}

// TestBeliefDecideMultiSingleTrackMatchesDecide mirrors the equivalence for
// the QMDP executive, with the reference integrating each action
// separately through the per-action expectedQ.
func TestBeliefDecideMultiSingleTrackMatchesDecide(t *testing.T) {
	table := getCoarseTable(t)
	belief, err := NewBeliefLogic(table, DefaultBeliefSigmas())
	if err != nil {
		t.Fatal(err)
	}
	ref := &pairwiseRef{table: table, choose: func(tau, h, dh0, dh1 float64, ra Advisory, mask SenseMask) (Advisory, bool) {
		var q [NumAdvisories]float64
		for a := range q {
			q[a] = belief.expectedQ(tau, h, dh0, dh1, ra, Advisory(a))
		}
		return bestAllowed(&q, mask)
	}}
	checkSingleTrackMatchesPairwise(t, belief, ref, -15, 1)
}
