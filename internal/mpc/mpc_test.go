package mpc

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

// headOnState returns an ownship and a co-altitude intruder track closing
// head-on at the given range.
func headOnState(rangeM float64) (uav.State, geom.Track) {
	own := uav.State{Pos: geom.Vec3{Z: 500}, Vel: geom.Velocity{Gs: 50}}
	tr := geom.Track{
		Pos: geom.Vec3{X: rangeM, Z: 500},
		Vel: geom.Vec3{X: -50},
	}
	return own, tr
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.SafetyDistance = -1 },
		func(c *Config) { c.Sharpness = 0 },
		func(c *Config) { c.CollisionWeight = 0 },
		func(c *Config) { c.DeviationWeight = -0.1 },
		func(c *Config) { c.Accel = 0 },
		func(c *Config) { c.MaxVerticalRate = 0 },
		func(c *Config) { c.ClimbRates = []float64{-1} },
		func(c *Config) { c.ClimbRates = []float64{c.MaxVerticalRate + 1} },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

// TestClearWhenFar: a distant intruder must not trigger a command.
func TestClearWhenFar(t *testing.T) {
	s := mustNew(t)
	own, tr := headOnState(50_000)
	d := s.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{})
	if !reflect.DeepEqual(d, sim.Decision{}) {
		t.Errorf("far intruder: decision %+v, want clear of conflict", d)
	}
}

// TestAvoidsHeadOn: a close co-altitude head-on intruder must draw a
// vertical command, with the alert edge flagged exactly once.
func TestAvoidsHeadOn(t *testing.T) {
	s := mustNew(t)
	own, tr := headOnState(1200)
	d := s.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{})
	if !d.HasCmd || !d.Cmd.HasVS {
		t.Fatalf("head-on intruder: decision %+v, want a vertical command", d)
	}
	if d.Cmd.TargetVS == 0 {
		t.Error("head-on co-altitude conflict resolved with level-off")
	}
	if !d.Alerting || !d.NewAlert {
		t.Errorf("first alert: Alerting=%v NewAlert=%v, want true/true", d.Alerting, d.NewAlert)
	}
	if d.Sense == sim.SenseNone {
		t.Error("vertical command claims no sense")
	}
	d2 := s.DecideTracks(1, own, []geom.Track{tr}, sim.Constraint{})
	if !d2.Alerting || d2.NewAlert {
		t.Errorf("second alert: Alerting=%v NewAlert=%v, want true/false", d2.Alerting, d2.NewAlert)
	}
}

// TestConstraintBansSense: a banned sense must never be commanded.
func TestConstraintBansSense(t *testing.T) {
	own, tr := headOnState(1200)
	for _, tc := range []struct {
		c    sim.Constraint
		name string
	}{
		{sim.Constraint{BanUp: true}, "BanUp"},
		{sim.Constraint{BanDown: true}, "BanDown"},
	} {
		s := mustNew(t)
		d := s.DecideTracks(0, own, []geom.Track{tr}, tc.c)
		if !d.HasCmd {
			t.Fatalf("%s: no command against head-on conflict", tc.name)
		}
		if tc.c.BanUp && d.Cmd.TargetVS > 0 {
			t.Errorf("BanUp violated: TargetVS %v", d.Cmd.TargetVS)
		}
		if tc.c.BanDown && d.Cmd.TargetVS < 0 {
			t.Errorf("BanDown violated: TargetVS %v", d.Cmd.TargetVS)
		}
	}
}

// TestStrengthenFlag: commands at or above StrengthenRate carry the
// strengthened-acceleration flag.
func TestStrengthenFlag(t *testing.T) {
	s := mustNew(t)
	own, tr := headOnState(1200)
	d := s.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{})
	if !d.HasCmd {
		t.Fatal("no command against head-on conflict")
	}
	want := math.Abs(d.Cmd.TargetVS) >= s.cfg.StrengthenRate
	if d.Cmd.Strengthen != want {
		t.Errorf("TargetVS %v: Strengthen=%v, want %v", d.Cmd.TargetVS, d.Cmd.Strengthen, want)
	}
}

// TestMultiTrackMoreRestrictive: boxing the ownship in from above must flip
// the single-threat resolution downward.
func TestMultiTrackMoreRestrictive(t *testing.T) {
	s := mustNew(t)
	own, tr := headOnState(1200)
	single := s.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{})
	if !single.HasCmd || single.Cmd.TargetVS <= 0 {
		t.Fatalf("single-threat head-on: decision %+v, want a climb", single)
	}
	// A second intruder descending onto the climb path.
	above := geom.Track{
		Pos: geom.Vec3{X: 900, Z: 650},
		Vel: geom.Vec3{X: -50, Z: -5},
	}
	s.Reset()
	multi := s.DecideTracks(0, own, []geom.Track{tr, above}, sim.Constraint{})
	if !multi.HasCmd {
		t.Fatal("boxed-in conflict: no command")
	}
	if multi.Cmd.TargetVS >= single.Cmd.TargetVS {
		t.Errorf("blocking the climb left TargetVS at %v (single-threat %v)",
			multi.Cmd.TargetVS, single.Cmd.TargetVS)
	}
}

// TestRunDeterminism: equipping both aircraft of a seeded encounter with
// MPC must reproduce the run byte for byte.
func TestRunDeterminism(t *testing.T) {
	cfg := sim.DefaultRunConfig()
	cfg.RecordTrajectory = true
	p := encounter.PresetHeadOn()
	run := func() sim.Result {
		t.Helper()
		res, err := sim.RunEncounter(p.Multi(), []sim.System{mustNew(t), mustNew(t)}, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed MPC runs differ")
	}
}

// TestDecideTracksZeroAlloc: the scoring loop must not allocate.
func TestDecideTracksZeroAlloc(t *testing.T) {
	s := mustNew(t)
	own, tr := headOnState(1200)
	tracks := []geom.Track{tr, {Pos: geom.Vec3{X: -2000, Z: 480}, Vel: geom.Vec3{X: 40}}}
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
	own, tr := headOnState(1200)
	a, b := mustNew(t), mustNew(t)
	want := a.DecideTracks(0, own, []geom.Track{tr}, sim.Constraint{})
	got := b.Decide(0, own, tr.Pos, tr.Vel, sim.Constraint{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Decide %+v, want DecideTracks result %+v", got, want)
	}
}

// BenchmarkMPCDecide is CI's zero-alloc gate for the MPC hot path.
func BenchmarkMPCDecide(b *testing.B) {
	s := mustNew(b)
	own, tr := headOnState(1200)
	tracks := []geom.Track{tr}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DecideTracks(0, own, tracks, sim.Constraint{})
	}
}
