package sim

import (
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// AvoidanceSystem is the collision avoidance decision contract: the engine
// hands the system every currently-tracked intruder once per decision cycle
// and the system resolves them all in one step. A pairwise (K=1) encounter
// is the one-track case. It is the interface the encounter runner consults.
//
// Implementations must perform no steady-state allocation in DecideTracks:
// the method sits on the innermost loop of every validation workload
// (Monte-Carlo estimation, adversarial search, campaign sweeps), and the
// episode engine's zero-alloc guarantee extends through it.
type AvoidanceSystem interface {
	// DecideTracks runs one decision cycle against every tracked intruder.
	// tracks holds at least one entry and is only valid for the duration of
	// the call (the engine reuses the backing array); implementations must
	// not retain it.
	DecideTracks(now float64, own uav.State, tracks []geom.Track, c Constraint) Decision
	// Reset prepares the system for a fresh encounter.
	Reset()
}

// Adapt returns s as the engine's decision contract. Every System already
// implements AvoidanceSystem, so this is the identity; it remains for
// callers that hold a System and want the narrower interface.
func Adapt(s System) AvoidanceSystem { return s }
