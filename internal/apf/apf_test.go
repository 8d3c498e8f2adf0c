package apf

import (
	"math"
	"reflect"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/geom"
	"acasxval/internal/sim"
	"acasxval/internal/uav"
)

func mustNew(t testing.TB) *System {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// closingState returns an ownship and an intruder track closing head-on
// slightly below the ownship's altitude.
func closingState(rangeM float64) (uav.State, geom.Track) {
	own := uav.State{Pos: geom.Vec3{Z: 500}, Vel: geom.Velocity{Gs: 50}}
	tr := geom.Track{
		Pos: geom.Vec3{X: rangeM, Z: 490},
		Vel: geom.Vec3{X: -50},
	}
	return own, tr
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.InfluenceRadius = 0 },
		func(c *Config) { c.RepulsiveGain = 0 },
		func(c *Config) { c.MaxVerticalRate = 0 },
		func(c *Config) { c.SenseDeadband = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

// TestClearWhenFar: an intruder outside the influence radius must not
// trigger a command.
func TestClearWhenFar(t *testing.T) {
	s := mustNew(t)
	own, tr := closingState(2 * s.cfg.InfluenceRadius)
	d := s.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{})
	if !reflect.DeepEqual(d, sim.Decision{}) {
		t.Errorf("far intruder: decision %+v, want clear of conflict", d)
	}
}

// TestClosingGate: a diverging intruder inside the influence radius must
// not repulse.
func TestClosingGate(t *testing.T) {
	s := mustNew(t)
	own, tr := closingState(800)
	tr.Vel = geom.Vec3{X: 60} // faster than own, opening the range
	d := s.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{})
	if !reflect.DeepEqual(d, sim.Decision{}) {
		t.Errorf("diverging intruder: decision %+v, want clear of conflict", d)
	}
}

// TestRepulsesClosingIntruder: a closing intruder inside the radius draws a
// command pushing away from it, with the alert edge flagged once.
func TestRepulsesClosingIntruder(t *testing.T) {
	s := mustNew(t)
	own, tr := closingState(800)
	d := s.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{})
	if !d.HasCmd || !d.Cmd.HasVS {
		t.Fatalf("closing intruder: decision %+v, want a command", d)
	}
	// The intruder sits below the ownship; the field must push up.
	if d.Cmd.TargetVS <= own.Vel.Vs {
		t.Errorf("intruder below: TargetVS %v, want a climb", d.Cmd.TargetVS)
	}
	if !d.Alerting || !d.NewAlert {
		t.Errorf("first alert: Alerting=%v NewAlert=%v, want true/true", d.Alerting, d.NewAlert)
	}
	d2 := s.DecideTracks(1, own, []geom.Track{tr}, sim.Constraint{})
	if !d2.Alerting || d2.NewAlert {
		t.Errorf("second alert: Alerting=%v NewAlert=%v, want true/false", d2.Alerting, d2.NewAlert)
	}
}

// TestConstraintBansSense: repulsion into a banned sense is clamped.
func TestConstraintBansSense(t *testing.T) {
	s := mustNew(t)
	own, tr := closingState(800) // intruder below: field pushes up
	d := s.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{BanUp: true})
	if !d.HasCmd {
		t.Fatal("closing intruder: no command")
	}
	if d.Cmd.TargetVS > own.Vel.Vs {
		t.Errorf("BanUp violated: TargetVS %v above current rate %v", d.Cmd.TargetVS, own.Vel.Vs)
	}
	if d.Sense == sim.SenseUp {
		t.Error("BanUp violated: claimed SenseUp")
	}
}

// TestMultiTrackFieldsSum: two symmetric intruders left and right cancel
// horizontally but their shared vertical offset adds.
func TestMultiTrackFieldsSum(t *testing.T) {
	s := mustNew(t)
	own := uav.State{Pos: geom.Vec3{Z: 500}, Vel: geom.Velocity{Gs: 50}}
	below := func(y float64) geom.Track {
		return geom.Track{
			Pos: geom.Vec3{X: 600, Y: y, Z: 480},
			Vel: geom.Vec3{X: -50},
		}
	}
	one := s.DecideTracks(0, own, []geom.Track{below(0)}, sim.Constraint{})
	s.Reset()
	two := s.DecideTracks(0, own, []geom.Track{below(200), below(-200)}, sim.Constraint{})
	if !one.HasCmd || !two.HasCmd {
		t.Fatalf("closing intruders drew no command: one=%+v two=%+v", one, two)
	}
	if two.Cmd.TargetVS <= own.Vel.Vs {
		t.Errorf("two intruders below: TargetVS %v, want a climb", two.Cmd.TargetVS)
	}
	// Symmetric lateral placement: the commanded heading stays on course.
	if two.Cmd.HasHeading {
		if off := math.Abs(geom.WrapSigned(two.Cmd.TargetHeading - own.Vel.Psi)); off > 1e-9 {
			t.Errorf("symmetric intruders bent the heading by %v rad", off)
		}
	}
}

// TestRunDeterminism: equipping both aircraft of a seeded encounter with
// APF must reproduce the run byte for byte.
func TestRunDeterminism(t *testing.T) {
	cfg := sim.DefaultRunConfig()
	cfg.RecordTrajectory = true
	p := encounter.PresetHeadOn()
	run := func() sim.Result {
		t.Helper()
		res, err := sim.RunEncounter(p.Multi(), []sim.System{mustNew(t), mustNew(t)}, cfg, 13)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed APF runs differ")
	}
}

// TestDecideTracksZeroAlloc: the field evaluation must not allocate.
func TestDecideTracksZeroAlloc(t *testing.T) {
	s := mustNew(t)
	own, tr := closingState(800)
	tracks := []geom.Track{tr, {Pos: geom.Vec3{X: -900, Z: 520}, Vel: geom.Vec3{X: 45}}}
	allocs := testing.AllocsPerRun(100, func() {
		s.DecideTracks(0, own, tracks, sim.Constraint{})
	})
	if allocs > 0 {
		t.Errorf("DecideTracks allocates %.1f per call, want 0", allocs)
	}
}

// TestDecideMatchesSingleTrack: the pairwise path is the one-track
// multi-track path.
func TestDecideMatchesSingleTrack(t *testing.T) {
	own, tr := closingState(800)
	a, b := mustNew(t), mustNew(t)
	want := a.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{})
	got := b.Decide(0, own, tr.Pos, tr.Vel, sim.Constraint{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Decide %+v, want DecideTracks result %+v", got, want)
	}
}

// BenchmarkAPFDecide is CI's zero-alloc gate for the APF hot path.
func BenchmarkAPFDecide(b *testing.B) {
	s := mustNew(b)
	own, tr := closingState(800)
	tracks := []geom.Track{tr}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DecideTracks(0, own, tracks, sim.Constraint{})
	}
}
