package sim

import (
	"acasxval/internal/acasx"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// acasxExecutive is the decision surface acasx.Logic (point estimate) and
// acasx.BeliefLogic (QMDP) share: one cycle over every tracked intruder.
type acasxExecutive interface {
	Decide(own uav.State, tracks []geom.Track, mask acasx.SenseMask) acasx.Decision
	Advisory() acasx.Advisory
	Reset()
}

// ACASXU adapts a table-driven acasx executive — the point-estimate logic
// or the QMDP belief-weighted one — to the System interface, so the
// encounter runner can equip an aircraft with it.
//
// DecideTracks is on the innermost loop of every validation workload
// (Monte-Carlo estimation, GA search, campaign sweeps): each call runs one
// decision cycle through the executive's shared-weight table scan, which
// performs no allocation.
type ACASXU struct {
	logic acasxExecutive
	pair  [1]geom.Track // scratch for the one-track Decide
}

var _ System = (*ACASXU)(nil)

// NewACASXU wraps a built or loaded logic table with the point-estimate
// executive.
func NewACASXU(table *acasx.Table) *ACASXU {
	return &ACASXU{logic: acasx.NewLogic(table)}
}

// NewACASXUBelief wraps a table with the QMDP belief-weighted executive
// (the paper's section IV POMDP question, answered with the standard QMDP
// approximation).
func NewACASXUBelief(table *acasx.Table, sigmas acasx.BeliefSigmas) (*ACASXU, error) {
	logic, err := acasx.NewBeliefLogic(table, sigmas)
	if err != nil {
		return nil, err
	}
	return &ACASXU{logic: logic}, nil
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

// DecideTracks implements AvoidanceSystem through the executive's decision
// cycle: one track is the pairwise table query, several fuse
// most-restrictive-first.
func (a *ACASXU) DecideTracks(_ float64, own uav.State, tracks []geom.Track, c Constraint) Decision {
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.Decide(own, tracks, mask))
}

// Decide implements System: the one-track case of DecideTracks.
func (a *ACASXU) Decide(now float64, own uav.State, intrPos, intrVel geom.Vec3, c Constraint) Decision {
	a.pair[0] = geom.Track{Pos: intrPos, Vel: intrVel}
	return a.DecideTracks(now, own, a.pair[:], c)
}

// Reset implements System.
func (a *ACASXU) Reset() { a.logic.Reset() }

// Advisory exposes the active advisory for inspection.
func (a *ACASXU) Advisory() acasx.Advisory { return a.logic.Advisory() }
