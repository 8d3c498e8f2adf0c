package sim

import (
	"acasxval/internal/acasx"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// ACASXU adapts the acasx logic executive to the System interface, so the
// encounter runner can equip an aircraft with the table-driven logic.
//
// DecideTracks is on the innermost loop of every validation workload
// (Monte-Carlo estimation, GA search, campaign sweeps): each call runs one
// decision cycle through the executive's shared-weight table scan, which
// performs no allocation.
type ACASXU struct {
	logic *acasx.Logic
}

var _ System = (*ACASXU)(nil)

// NewACASXU wraps a built or loaded logic table.
func NewACASXU(table *acasx.Table) *ACASXU {
	return &ACASXU{logic: acasx.NewLogic(table)}
}

// fromACASDecision converts an executive decision into the engine's form.
func fromACASDecision(d acasx.Decision) Decision {
	out := Decision{
		Alerting: d.Alerting,
		NewAlert: d.NewAlert,
	}
	switch d.Advisory.Sense() {
	case acasx.SenseUp:
		out.Sense = SenseUp
	case acasx.SenseDown:
		out.Sense = SenseDown
	}
	if cmd, ok := d.Command(); ok {
		out.Cmd = cmd
		out.HasCmd = true
	}
	return out
}

// Decide implements System.
func (a *ACASXU) Decide(_ float64, own uav.State, intrPos, intrVel geom.Vec3, c Constraint) Decision {
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.Decide(own, intrPos, intrVel, mask))
}

// DecideTracks implements AvoidanceSystem through the executive's
// multi-track cycle (acasx.Logic.DecideMulti): one track is the pairwise
// table query bit for bit, several fuse most-restrictive-first.
func (a *ACASXU) DecideTracks(_ float64, own uav.State, tracks []geom.Track, c Constraint) Decision {
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.DecideMulti(own, tracks, mask))
}

// Reset implements System.
func (a *ACASXU) Reset() { a.logic.Reset() }

// Advisory exposes the active advisory for inspection.
func (a *ACASXU) Advisory() acasx.Advisory { return a.logic.Advisory() }

// ACASXUBelief adapts the QMDP belief-weighted executive to the System
// interface (the paper's section IV POMDP question, answered with the
// standard QMDP approximation).
type ACASXUBelief struct {
	logic *acasx.BeliefLogic
}

var _ System = (*ACASXUBelief)(nil)

// NewACASXUBelief wraps a table with a belief-weighted executive.
func NewACASXUBelief(table *acasx.Table, sigmas acasx.BeliefSigmas) (*ACASXUBelief, error) {
	logic, err := acasx.NewBeliefLogic(table, sigmas)
	if err != nil {
		return nil, err
	}
	return &ACASXUBelief{logic: logic}, nil
}

// Decide implements System.
func (a *ACASXUBelief) Decide(_ float64, own uav.State, intrPos, intrVel geom.Vec3, c Constraint) Decision {
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.Decide(own, intrPos, intrVel, mask))
}

// DecideTracks implements AvoidanceSystem through the belief executive's
// multi-track cycle (acasx.BeliefLogic.DecideMulti): one track is the
// pairwise belief query bit for bit, several fuse most-restrictive-first.
func (a *ACASXUBelief) DecideTracks(_ float64, own uav.State, tracks []geom.Track, c Constraint) Decision {
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.DecideMulti(own, tracks, mask))
}

// Reset implements System.
func (a *ACASXUBelief) Reset() { a.logic.Reset() }
