// Package svo implements the Selective Velocity Obstacle (SVO) collision
// avoidance method of Jenie et al. (AIAA GNC 2013), the simpler algorithm
// the authors validated with the same GA-based search technique in their
// earlier study (paper reference [7]) before applying it to ACAS XU.
//
// The velocity obstacle of an intruder is the cone of relative velocities
// that lead the own-ship inside the intruder's protected zone. When the
// current relative velocity lies inside the cone, the own-ship steers so
// the relative velocity exits the cone. The *selective* element is the
// implicit coordination rule: every aircraft resolves to the same
// predefined side (here: the right-hand cone edge), so two cooperating
// aircraft turn in compatible directions without exchanging intentions.
package svo

import (
	"fmt"
	"math"

	"acasxval/internal/geom"
	"acasxval/internal/sim"
	"acasxval/internal/uav"
)

// Config parameterizes the SVO system.
type Config struct {
	// ProtectedRadius is the horizontal protected zone around each
	// aircraft, metres (default: the NMAC horizontal threshold).
	ProtectedRadius float64
	// TimeHorizon limits how far ahead a predicted zone entry triggers
	// avoidance, seconds.
	TimeHorizon float64
	// Margin widens the avoidance cone, radians, so the resolution aims
	// slightly outside the geometric edge.
	Margin float64
}

// DefaultConfig returns the parameterization used by the experiments.
func DefaultConfig() Config {
	return Config{
		ProtectedRadius: geom.NMACHorizontal,
		TimeHorizon:     60,
		Margin:          5 * math.Pi / 180,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ProtectedRadius <= 0 {
		return fmt.Errorf("svo: ProtectedRadius %v <= 0", c.ProtectedRadius)
	}
	if c.TimeHorizon <= 0 {
		return fmt.Errorf("svo: TimeHorizon %v <= 0", c.TimeHorizon)
	}
	if c.Margin < 0 {
		return fmt.Errorf("svo: negative Margin %v", c.Margin)
	}
	return nil
}

// System implements sim.System with the SVO method. SVO resolves one
// conflict at a time: facing several tracks it steers around the nearest.
type System struct {
	cfg      Config
	alerting bool
	pair     [1]geom.Track // scratch for the one-track Decide
}

var _ sim.System = (*System)(nil)

// New creates an SVO system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg}, nil
}

// Reset implements sim.System.
func (s *System) Reset() { s.alerting = false }

// Conflict describes the velocity-obstacle geometry of one intruder.
type Conflict struct {
	// Inside reports whether the current relative velocity is inside the
	// collision cone within the time horizon.
	Inside bool
	// TimeToEntry is the predicted time until protected-zone entry.
	TimeToEntry float64
	// ResolutionHeading is the own-ship heading that takes the relative
	// velocity to the selected (right-hand) cone edge.
	ResolutionHeading float64
}

// Analyze computes the velocity-obstacle geometry for own-ship state and an
// intruder track.
func (s *System) Analyze(own uav.State, intrPos, intrVel geom.Vec3) Conflict {
	r := intrPos.Sub(own.Pos).Horizontal()
	dist := r.Norm()
	if dist <= s.cfg.ProtectedRadius {
		// Already inside the zone: steer directly away from the intruder.
		away := math.Atan2(-r.Y, -r.X)
		return Conflict{Inside: true, TimeToEntry: 0, ResolutionHeading: geom.WrapAngle(away)}
	}
	vRel := own.VelVec().Sub(intrVel).Horizontal() // own velocity relative to intruder
	speed := vRel.Norm()
	if speed == 0 {
		return Conflict{TimeToEntry: math.Inf(1)}
	}
	// Collision cone: apex at own-ship, axis toward the intruder,
	// half-angle asin(R/dist).
	halfAngle := math.Asin(geom.Clamp(s.cfg.ProtectedRadius/dist, 0, 1))
	axis := math.Atan2(r.Y, r.X)
	relHeading := math.Atan2(vRel.Y, vRel.X)
	off := geom.WrapSigned(relHeading - axis)
	inside := math.Abs(off) < halfAngle

	// Predicted time to zone entry along the current relative velocity.
	entry := math.Inf(1)
	if inside {
		// Distance to the zone boundary along the relative velocity ray.
		closing := speed * math.Cos(off)
		if closing > 0 {
			entry = (dist - s.cfg.ProtectedRadius) / closing
		}
	}

	c := Conflict{
		Inside:      inside && entry <= s.cfg.TimeHorizon,
		TimeToEntry: entry,
	}
	if c.Inside {
		// Selective rule: always resolve toward the right-hand edge of the
		// cone (negative rotation of the relative velocity), so both
		// aircraft in a reciprocal conflict pass left-side-to-left-side.
		targetRel := axis - (halfAngle + s.cfg.Margin)
		// The new own velocity must be v_rel' + v_intr with v_rel' of the
		// same relative speed rotated onto the cone edge.
		vRelNew := geom.Vec3{X: speed * math.Cos(targetRel), Y: speed * math.Sin(targetRel)}
		vOwnNew := vRelNew.Add(intrVel.Horizontal())
		c.ResolutionHeading = geom.WrapAngle(math.Atan2(vOwnNew.Y, vOwnNew.X))
	}
	return c
}

// DecideTracks implements sim.AvoidanceSystem: the velocity-obstacle
// resolution against the nearest track in 3-D, the most immediately
// pressing conflict (first index on ties, so the choice is deterministic).
func (s *System) DecideTracks(_ float64, own uav.State, tracks []geom.Track, _ sim.Constraint) sim.Decision {
	n, nd := 0, tracks[0].Pos.DistanceSquaredTo(own.Pos)
	for i := 1; i < len(tracks); i++ {
		if d := tracks[i].Pos.DistanceSquaredTo(own.Pos); d < nd {
			n, nd = i, d
		}
	}
	c := s.Analyze(own, tracks[n].Pos, tracks[n].Vel)
	if !c.Inside {
		s.alerting = false
		return sim.Decision{}
	}
	newAlert := !s.alerting
	s.alerting = true
	return sim.Decision{
		Cmd: uav.Command{
			HasHeading:    true,
			TargetHeading: c.ResolutionHeading,
		},
		HasCmd:   true,
		Alerting: true,
		NewAlert: newAlert,
		// Horizontal-only resolution claims no vertical sense.
		Sense: sim.SenseNone,
	}
}

// Decide implements sim.System: the one-track case of DecideTracks.
func (s *System) Decide(now float64, own uav.State, intrPos, intrVel geom.Vec3, c sim.Constraint) sim.Decision {
	s.pair[0] = geom.Track{Pos: intrPos, Vel: intrVel}
	return s.DecideTracks(now, own, s.pair[:], c)
}
