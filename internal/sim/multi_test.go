package sim

import (
	"reflect"
	"testing"

	"acasxval/internal/encounter"
)

// farParams returns a pairwise geometry that misses by a wide margin: an
// intruder crossing 2 km abeam at the CPA.
func farParams() encounter.Params {
	p := encounter.PresetCrossing()
	p.HorizontalMissDistance = 2000
	return p
}

// TestRunMultiResetEquivalence: a reused Runner cycling through encounters
// of different intruder counts must match a fresh world for each — fleet
// growth and the k bookkeeping must not leak between episodes.
func TestRunMultiResetEquivalence(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.RecordTrajectory = true
	cfg.Sensor.DropRate = 0.1
	table := getTable(t)
	systemsFor := func(k int) []System {
		out := make([]System, k+1)
		for i := range out {
			out[i] = NewACASXU(table)
		}
		return out
	}
	scenarios := []struct {
		name string
		m    encounter.MultiParams
		seed uint64
	}{
		{"sandwich", encounter.MultiPresetSandwich(), 7},
		{"pairwise", encounter.PresetHeadOn().Multi(), 42},
		{"stream", encounter.MultiPresetCrossingStream(), 1234},
		{"pair", encounter.MultiPresetConvergingPair(), 5},
	}

	reused, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		// Dirty the world with a different intruder count first.
		dirtyK := 3 - sc.m.NumIntruders()
		if dirtyK < 1 {
			dirtyK = 3
		}
		dirty := encounter.DefaultRanges().SampleMulti(Rand(99, 0), dirtyK)
		if _, err := reused.Run(dirty, systemsFor(dirtyK), 999); err != nil {
			t.Fatal(err)
		}

		got, err := reused.Run(sc.m, systemsFor(sc.m.NumIntruders()), sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		// The reused runner's AlertCounts alias its scratch; copy before the
		// next run overwrites them.
		got.AlertCounts = append([]int(nil), got.AlertCounts...)
		want, err := RunEncounter(sc.m, systemsFor(sc.m.NumIntruders()), cfg, sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused-runner result differs from fresh world\n got: %+v\nwant: %+v",
				sc.name, got, want)
		}
	}
}

// TestRunMultiZeroAlloc: at a steady intruder count a reused Runner must
// not allocate per multi-intruder episode.
func TestRunMultiZeroAlloc(t *testing.T) {
	cfg := DefaultRunConfig()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := encounter.MultiPresetSandwich()
	systems := []System{NoSystem{}, NoSystem{}, NoSystem{}}
	if _, err := r.Run(m, systems, 1); err != nil {
		t.Fatal(err)
	}
	seed := uint64(2)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.Run(m, systems, seed); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	if allocs > 0 {
		t.Errorf("Runner.Run allocates %.1f times per episode, want 0", allocs)
	}
}

// TestRunMultiEquippedZeroAlloc is TestRunMultiZeroAlloc with an equipped
// ownship, so the steady state covers the multi-threat fusion cycle
// (Logic.DecideMulti and its per-threat query closure) too.
func TestRunMultiEquippedZeroAlloc(t *testing.T) {
	table := getTable(t)
	cfg := DefaultRunConfig()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := encounter.MultiPresetSandwich()
	systems := []System{NewACASXU(table), NoSystem{}, NoSystem{}}
	if _, err := r.Run(m, systems, 1); err != nil {
		t.Fatal(err)
	}
	seed := uint64(2)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.Run(m, systems, seed); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	if allocs > 0 {
		t.Errorf("equipped Runner.Run allocates %.1f times per episode, want 0", allocs)
	}
}

// TestRunMultiNMACAgainstAnyIntruder: the accident detector must trigger on
// the ownship colliding with *any* intruder — here the second one, while
// the first passes far abeam.
func TestRunMultiNMACAgainstAnyIntruder(t *testing.T) {
	cfg := DefaultRunConfig()
	headon := encounter.PresetHeadOn()
	m := encounter.MultiOf(farParams(), headon)
	systems := []System{NoSystem{}, NoSystem{}, NoSystem{}}
	res, err := RunEncounter(m, systems, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NMAC {
		t.Fatal("unequipped multi encounter with an embedded head-on did not NMAC")
	}
	// The same far geometry alone must not collide, proving intruder 2
	// caused the detection.
	alone, err := RunEncounter(farParams().Multi(), []System{NoSystem{}, NoSystem{}}, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if alone.NMAC {
		t.Fatal("far-miss geometry collides on its own; test is vacuous")
	}
	if res.MinSeparation >= alone.MinSeparation {
		t.Errorf("multi min separation %v not below far-pair %v",
			res.MinSeparation, alone.MinSeparation)
	}
}

// TestRunMultiAlertCounts: per-aircraft alert accounting — an equipped
// ownship in a sandwich alerts, its unequipped intruders never do, and the
// accessors agree with the slice.
func TestRunMultiAlertCounts(t *testing.T) {
	cfg := DefaultRunConfig()
	table := getTable(t)
	m := encounter.MultiPresetSandwich()
	systems := []System{NewACASXU(table), NoSystem{}, NoSystem{}}
	res, err := RunEncounter(m, systems, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AlertCounts) != 3 {
		t.Fatalf("AlertCounts length %d, want 3", len(res.AlertCounts))
	}
	if res.AlertCounts[1] != 0 || res.AlertCounts[2] != 0 {
		t.Errorf("unequipped intruders alerted: %v", res.AlertCounts)
	}
	if res.OwnAlerts() != res.AlertCounts[0] {
		t.Errorf("OwnAlerts() %d != AlertCounts[0] %d", res.OwnAlerts(), res.AlertCounts[0])
	}
	if res.IntruderAlerts() != 0 {
		t.Errorf("IntruderAlerts() %d, want 0", res.IntruderAlerts())
	}
	if res.OwnAlerts() == 0 {
		t.Error("equipped ownship never alerted in a sandwich")
	}
	if !res.Alerted() || res.TotalAlerts() != res.OwnAlerts() {
		t.Errorf("accessor disagreement: Alerted %v TotalAlerts %d OwnAlerts %d",
			res.Alerted(), res.TotalAlerts(), res.OwnAlerts())
	}
}

// TestRunMultiValidation: malformed fleets are rejected.
func TestRunMultiValidation(t *testing.T) {
	r, err := NewRunner(DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := encounter.MultiPresetConvergingPair()
	if _, err := r.Run(m, []System{NoSystem{}, NoSystem{}}, 1); err == nil {
		t.Error("system count mismatch accepted")
	}
	if _, err := r.Run(m, []System{NoSystem{}, nil, NoSystem{}}, 1); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := r.Run(encounter.MultiParams{}, []System{NoSystem{}}, 1); err == nil {
		t.Error("empty encounter accepted")
	}
	bad := m
	bad.Intruders = append([]encounter.Params(nil), m.Intruders...)
	bad.Intruders[1].OwnGroundSpeed += 5
	if _, err := r.Run(bad, []System{NoSystem{}, NoSystem{}, NoSystem{}}, 1); err == nil {
		t.Error("desynchronized ownship state accepted")
	}
}

// TestRunMultiTrajectoryRecordsAllIntruders: trajectory points carry the
// second-and-beyond intruders in MoreIntruders.
func TestRunMultiTrajectoryRecordsAllIntruders(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.RecordTrajectory = true
	m := encounter.MultiPresetCrossingStream() // K = 3
	systems := []System{NoSystem{}, NoSystem{}, NoSystem{}, NoSystem{}}
	res, err := RunEncounter(m, systems, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) == 0 {
		t.Fatal("no trajectory recorded")
	}
	for i, tp := range res.Trajectory {
		if len(tp.MoreIntruders) != 2 {
			t.Fatalf("point %d has %d extra intruders, want 2", i, len(tp.MoreIntruders))
		}
	}
}
