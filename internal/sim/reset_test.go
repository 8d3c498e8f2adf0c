package sim

import (
	"reflect"
	"testing"

	"acasxval/internal/encounter"
)

// TestRunnerResetEquivalence: a Runner that has already simulated other
// encounters must produce byte-identical results — including the full
// recorded trajectory — to a freshly constructed world running the same
// (params, systems, seed). This is the invariant the zero-alloc Monte-Carlo
// evaluator rests on: per-worker worlds are reset, never rebuilt.
func TestRunnerResetEquivalence(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.RecordTrajectory = true
	cfg.Sensor.DropRate = 0.1 // exercise the track-coast path too

	table := getTable(t)
	scenarios := []struct {
		name string
		p    encounter.Params
		seed uint64
	}{
		{"tail", encounter.PresetTailApproach(), 7},
		{"headon", encounter.PresetHeadOn(), 42},
		{"crossing", encounter.PresetCrossing(), 1234},
	}

	reused, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the reused world thoroughly before each comparison run: state
	// left behind by a previous episode must not leak into the next.
	dirty := func() {
		if _, err := reused.Run(encounter.PresetVerticalConvergence().Multi(),
			[]System{NewACASXU(table), NewACASXU(table)}, 999); err != nil {
			t.Fatal(err)
		}
	}

	for _, sc := range scenarios {
		dirty()
		got, err := reused.Run(sc.p.Multi(), []System{NewACASXU(table), NewACASXU(table)}, sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunEncounter(sc.p.Multi(), []System{NewACASXU(table), NewACASXU(table)}, cfg, sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused-runner result differs from fresh world\n got: %+v\nwant: %+v",
				sc.name, got, want)
		}
		if len(got.Trajectory) == 0 {
			t.Fatalf("%s: no trajectory recorded", sc.name)
		}
	}
}

// TestRunnerRunZeroAlloc: a reused Runner must not allocate per episode
// (trajectory recording off) — the steady state of every Monte-Carlo
// worker.
func TestRunnerRunZeroAlloc(t *testing.T) {
	cfg := DefaultRunConfig()
	m := encounter.PresetHeadOn().Multi()
	// Unequipped aircraft skip surveillance; the evaders run the full
	// surveillance, tracker and decision cycle.
	for name, systems := range map[string][]System{
		"unequipped": {NoSystem{}, NoSystem{}},
		"equipped":   {&evader{rangeM: 2000}, &evader{rangeM: 2000}},
	} {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up (first Run seeds the reusable RNGs, which allocates the
		// four rand.Rand wrappers once).
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
			t.Errorf("%s: Runner.Run allocates %.1f times per episode, want 0", name, allocs)
		}
	}
}

// TestRunnerReconfigure: reconfiguring a runner rewires it for the new
// configuration, and reconfiguring to the same configuration is a no-op
// that keeps results identical.
func TestRunnerReconfigure(t *testing.T) {
	cfg := DefaultRunConfig()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := encounter.PresetHeadOn()
	base, err := r.Run(p.Multi(), []System{NoSystem{}, NoSystem{}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Same config: no-op.
	if err := r.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	again, err := r.Run(p.Multi(), []System{NoSystem{}, NoSystem{}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Error("re-running after a no-op Reconfigure changed the result")
	}
	// Changed config: takes effect (no tracker changes the decision path).
	cfg2 := cfg
	cfg2.UseTracker = false
	if err := r.Reconfigure(cfg2); err != nil {
		t.Fatal(err)
	}
	want, err := RunEncounter(p.Multi(), []System{NoSystem{}, NoSystem{}}, cfg2, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(p.Multi(), []System{NoSystem{}, NoSystem{}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("reconfigured runner disagrees with a fresh world under the new config")
	}
	// Invalid config: rejected, runner keeps its old wiring.
	bad := cfg2
	bad.Dt = -1
	if err := r.Reconfigure(bad); err == nil {
		t.Error("Reconfigure accepted an invalid config")
	}
}

// TestRunnerRejectsZeroConfig: the zero RunConfig is invalid (Dt 0) and
// must be rejected at construction — the no-op short-circuit for repeat
// configurations must not mistake a zero Runner for an already-configured
// one (a zero Dt would otherwise hang Run's time loop forever).
func TestRunnerRejectsZeroConfig(t *testing.T) {
	if _, err := NewRunner(RunConfig{}); err == nil {
		t.Fatal("NewRunner accepted the zero RunConfig")
	}
	if _, err := RunEncounter(encounter.PresetHeadOn().Multi(), []System{NoSystem{}, NoSystem{}}, RunConfig{}, 1); err == nil {
		t.Fatal("RunEncounter accepted the zero RunConfig")
	}
}
