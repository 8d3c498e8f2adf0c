package svo

import (
	"math"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/geom"
	"acasxval/internal/sim"
	"acasxval/internal/uav"
)

func mustSystem(t *testing.T) *System {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"radius", func(c *Config) { c.ProtectedRadius = 0 }},
		{"horizon", func(c *Config) { c.TimeHorizon = 0 }},
		{"margin", func(c *Config) { c.Margin = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestHeadOnConflictDetected(t *testing.T) {
	s := mustSystem(t)
	own := uav.State{Vel: geom.Velocity{Gs: 50, Psi: 0}}
	c := s.Analyze(own, geom.Vec3{X: 2000}, geom.Vec3{X: -50})
	if !c.Inside {
		t.Fatal("head-on conflict not detected")
	}
	// Closing at 100 m/s from 2000 m with a ~152 m zone: entry in ~18.5 s.
	if math.Abs(c.TimeToEntry-18.5) > 1 {
		t.Errorf("TimeToEntry = %v, want ~18.5", c.TimeToEntry)
	}
	// The selective rule resolves right: target heading south of east
	// (negative Y side) for an intruder dead ahead.
	if d := geom.WrapSigned(c.ResolutionHeading); d > 0 {
		t.Errorf("resolution heading %v not on the right side", c.ResolutionHeading)
	}
}

func TestNoConflictWhenDiverging(t *testing.T) {
	s := mustSystem(t)
	own := uav.State{Vel: geom.Velocity{Gs: 50, Psi: 0}}
	c := s.Analyze(own, geom.Vec3{X: -2000}, geom.Vec3{X: -50})
	if c.Inside {
		t.Error("diverging traffic flagged as conflict")
	}
	d := s.Decide(0, own, geom.Vec3{X: -2000}, geom.Vec3{X: -50}, sim.Constraint{})
	if d.HasCmd || d.Alerting {
		t.Error("diverging traffic produced a command")
	}
}

func TestNoConflictBeyondHorizon(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TimeHorizon = 10
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	own := uav.State{Vel: geom.Velocity{Gs: 50, Psi: 0}}
	// Entry in ~18.5 s but horizon is 10 s.
	c := s.Analyze(own, geom.Vec3{X: 2000}, geom.Vec3{X: -50})
	if c.Inside {
		t.Error("conflict beyond the time horizon flagged")
	}
}

func TestInsideZoneSteersAway(t *testing.T) {
	s := mustSystem(t)
	own := uav.State{Vel: geom.Velocity{Gs: 50, Psi: 0}}
	// Intruder 100 m ahead: already inside the 152 m zone.
	c := s.Analyze(own, geom.Vec3{X: 100}, geom.Vec3{X: -50})
	if !c.Inside || c.TimeToEntry != 0 {
		t.Fatal("inside-zone case not flagged")
	}
	// Away heading: roughly west (pi).
	if math.Abs(geom.WrapSigned(c.ResolutionHeading-math.Pi)) > 0.1 {
		t.Errorf("away heading = %v, want ~pi", c.ResolutionHeading)
	}
}

func TestOffsetPassNoConflict(t *testing.T) {
	s := mustSystem(t)
	own := uav.State{Vel: geom.Velocity{Gs: 50, Psi: 0}}
	// Intruder parallel track 1 km to the side: relative velocity outside
	// the cone.
	c := s.Analyze(own, geom.Vec3{X: 2000, Y: 1000}, geom.Vec3{X: -50})
	if c.Inside {
		t.Error("well-separated parallel pass flagged")
	}
}

func TestZeroRelativeVelocity(t *testing.T) {
	s := mustSystem(t)
	own := uav.State{Vel: geom.Velocity{Gs: 50, Psi: 0}}
	c := s.Analyze(own, geom.Vec3{X: 2000}, geom.Vec3{X: 50})
	if c.Inside {
		t.Error("formation flight flagged as conflict")
	}
	if !math.IsInf(c.TimeToEntry, 1) {
		t.Errorf("TimeToEntry = %v, want +inf", c.TimeToEntry)
	}
}

func TestReciprocalResolutionIsCompatible(t *testing.T) {
	// Both aircraft in a symmetric head-on apply the selective rule; their
	// resolution headings must rotate them to the same side (each passes
	// with the other on its left).
	s1 := mustSystem(t)
	s2 := mustSystem(t)
	a := uav.State{Pos: geom.Vec3{X: 0}, Vel: geom.Velocity{Gs: 50, Psi: 0}}
	b := uav.State{Pos: geom.Vec3{X: 2000}, Vel: geom.Velocity{Gs: 50, Psi: math.Pi}}
	ca := s1.Analyze(a, b.Pos, b.VelVec())
	cb := s2.Analyze(b, a.Pos, a.VelVec())
	if !ca.Inside || !cb.Inside {
		t.Fatal("reciprocal conflict not detected by both")
	}
	// Each aircraft turns right in its own frame (negative heading change),
	// which makes the maneuvers compatible: both pass left-to-left.
	da := geom.WrapSigned(ca.ResolutionHeading - 0)
	db := geom.WrapSigned(cb.ResolutionHeading - math.Pi)
	if da >= 0 || db >= 0 {
		t.Errorf("resolutions not both right turns: da=%v db=%v", da, db)
	}
}

// TestSVOResolvesHeadOnInSim runs the full closed loop: two SVO-equipped
// aircraft in the head-on preset must not NMAC.
func TestSVOResolvesHeadOnInSim(t *testing.T) {
	mk := func() sim.System {
		s, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cfg := sim.DefaultRunConfig()
	cfg.UseTracker = true
	res, err := sim.RunEncounter(encounter.PresetHeadOn().Multi(), []sim.System{mk(), mk()}, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.NMAC {
		t.Fatalf("SVO head-on collided (min sep %v)", res.MinSeparation)
	}
	if !res.Alerted() {
		t.Error("SVO never alerted in head-on")
	}
}

func TestAlertAccounting(t *testing.T) {
	s := mustSystem(t)
	own := uav.State{Vel: geom.Velocity{Gs: 50, Psi: 0}}
	d1 := s.Decide(0, own, geom.Vec3{X: 2000}, geom.Vec3{X: -50}, sim.Constraint{})
	if !d1.NewAlert {
		t.Error("first conflict decision not flagged as new alert")
	}
	d2 := s.Decide(1, own, geom.Vec3{X: 1900}, geom.Vec3{X: -50}, sim.Constraint{})
	if d2.NewAlert {
		t.Error("continued conflict flagged as new alert")
	}
	s.Reset()
	d3 := s.Decide(2, own, geom.Vec3{X: 1800}, geom.Vec3{X: -50}, sim.Constraint{})
	if !d3.NewAlert {
		t.Error("alert state survived Reset")
	}
}

// TestDecideTracksNearestThreat: facing several tracks, SVO must resolve
// the nearest one in 3-D, whatever its index, and take the first index on a
// distance tie.
func TestDecideTracksNearestThreat(t *testing.T) {
	own := uav.State{Vel: geom.Velocity{Gs: 50, Psi: 0}}
	// A distant intruder off the left beam, clear of conflict, and a
	// closer head-on threat.
	far := geom.Track{Pos: geom.Vec3{Y: 3000}, Vel: geom.Vec3{Y: 30}}
	near := geom.Track{Pos: geom.Vec3{X: 2000}, Vel: geom.Vec3{X: -50}}
	want := mustSystem(t).Decide(0, own, near.Pos, near.Vel, sim.Constraint{})
	if !want.Alerting {
		t.Fatal("head-on track does not alert; test is vacuous")
	}
	for _, tracks := range [][]geom.Track{{far, near}, {near, far}} {
		if got := mustSystem(t).DecideTracks(0, own, tracks, sim.Constraint{}); got != want {
			t.Errorf("DecideTracks %+v, want the nearest threat's %+v", got, want)
		}
	}

	// Equidistant tracks: the first wins.
	mirror := geom.Track{Pos: geom.Vec3{Y: 2000}, Vel: geom.Vec3{Y: 30}}
	if mustSystem(t).Decide(0, own, mirror.Pos, mirror.Vel, sim.Constraint{}) == want {
		t.Fatal("tie tracks decide alike; tie test is vacuous")
	}
	for _, tracks := range [][]geom.Track{{near, mirror}, {mirror, near}} {
		first := mustSystem(t).Decide(0, own, tracks[0].Pos, tracks[0].Vel, sim.Constraint{})
		if got := mustSystem(t).DecideTracks(0, own, tracks, sim.Constraint{}); got != first {
			t.Errorf("tie resolved %+v, want the first track's %+v", got, first)
		}
	}
}
