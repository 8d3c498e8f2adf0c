package acasx

import (
	"math"

	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// Decision is one output of the online logic.
type Decision struct {
	// Advisory is the selected resolution advisory.
	Advisory Advisory
	// Tau is the estimated time to horizontal conflict used for the
	// decision (geom.TauUnbounded when not converging).
	Tau float64
	// H is the relative altitude (intruder minus own) used for the
	// decision, metres.
	H float64
	// Alerting reports whether an advisory other than COC is active.
	Alerting bool
	// NewAlert is true when this decision transitioned COC -> advisory.
	NewAlert bool
	// Reversal is true when this decision reversed advisory sense.
	Reversal bool
	// Strengthening is true when this decision strengthened the advisory.
	Strengthening bool
}

// executive is the decision cycle the point and belief executives share,
// and the advisory state it carries between cycles. Its exported methods
// are promoted to Logic and BeliefLogic.
type executive struct {
	table    *Table
	advisory Advisory
	// alerts counts COC -> advisory transitions.
	alerts int
	// reversals counts sense reversals.
	reversals int
	// q is the per-threat query scratch of cycle: the buffer crosses the
	// indirect query call, so a stack array would escape and allocate
	// every decision cycle.
	q [NumAdvisories]float64
}

// Advisory returns the currently active advisory.
func (e *executive) Advisory() Advisory { return e.advisory }

// Alerts returns the number of COC -> advisory transitions so far.
func (e *executive) Alerts() int { return e.alerts }

// Reversals returns the number of sense reversals so far.
func (e *executive) Reversals() int { return e.reversals }

// Reset clears the advisory state (new encounter).
func (e *executive) Reset() {
	e.advisory = COC
	e.alerts = 0
	e.reversals = 0
}

// queryFunc fills q with the action values of one threat at (tau, h, own
// and intruder vertical rates) under the active advisory ra. It must not
// retain q.
type queryFunc func(q *[NumAdvisories]float64, tau, h, dh0, dh1 float64, ra Advisory)

// cycle runs one decision cycle against every tracked intruder (tracks
// holds at least one; K = 1 is the pairwise encounter). Each threat inside
// the optimization horizon is queried independently — the table itself
// stays pairwise, it was optimized for one intruder — and the per-threat
// action values fuse worst-case-first: an advisory's fused value is its
// minimum across the threats, and the executive picks the advisory whose
// worst case is best. The most restrictive constraint therefore dominates
// — an advisory that resolves two threats but flies into a third is vetoed
// by the third's value — which is the "most-restrictive-first" fusion rule
// of layered multi-threat logics. The reported Tau and H are those of the
// most urgent threat (smallest effective tau, first index on ties).
func (e *executive) cycle(own uav.State, tracks []geom.Track, mask SenseMask, query queryFunc) Decision {
	ownVel := own.VelVec()
	prev := e.advisory
	var fused [NumAdvisories]float64
	threats := 0
	minTau, minH := math.Inf(1), 0.0
	horizon := float64(e.table.Horizon())
	for _, tr := range tracks {
		h := tr.Pos.Z - own.Pos.Z
		tau := effectiveTau(&e.table.cfg, own.Pos, ownVel, tr.Pos, tr.Vel, h, ownVel.Z, tr.Vel.Z)
		if tau < minTau {
			minTau, minH = tau, h
		}
		if tau >= horizon {
			continue
		}
		query(&e.q, tau, h, ownVel.Z, tr.Vel.Z, prev)
		if threats == 0 {
			fused = e.q
		} else {
			for a := range fused {
				if e.q[a] < fused[a] {
					fused[a] = e.q[a]
				}
			}
		}
		threats++
	}

	next := COC
	if threats > 0 {
		if best, ok := bestAllowed(&fused, mask); ok {
			next = best
		}
	}
	if next == COC && prev != COC && !clearOfAll(own.Pos, ownVel, tracks, e.table.cfg.DMOD) {
		// Either no threat is inside the horizon — with noisy surveillance
		// the tau estimate can transiently exceed it mid-conflict — or the
		// table proposes terminating the advisory because the projected
		// miss distance is adequate. Its clear-of-conflict model assumes
		// the aircraft drift, whereas real aircraft resume their
		// (conflicting) flight plans and re-converge, so hold the advisory
		// until every intruder is horizontally diverging, as fielded ACAS
		// logic does.
		next = prev
	}

	e.advisory = next
	d := Decision{
		Advisory: next,
		Tau:      minTau,
		H:        minH,
		Alerting: next != COC,
	}
	if prev == COC && next != COC {
		d.NewAlert = true
		e.alerts++
	}
	if prev.Sense() != SenseNone && next.Sense() != SenseNone && prev.Sense() != next.Sense() {
		d.Reversal = true
		e.reversals++
	}
	if next.Strengthened() && !prev.Strengthened() && prev.Sense() == next.Sense() {
		d.Strengthening = true
	}
	return d
}

// bestAllowed returns the advisory maximizing q among those the mask
// allows, scanning in advisory order (first maximum wins). The boolean is
// false when the mask bans every action.
func bestAllowed(q *[NumAdvisories]float64, mask SenseMask) (Advisory, bool) {
	best := COC
	bestQ := math.Inf(-1)
	found := false
	for a := COC; a < NumAdvisories; a++ {
		if !mask.Allows(a) {
			continue
		}
		if q[a] > bestQ {
			bestQ = q[a]
			best = a
			found = true
		}
	}
	return best, found
}

// clearOfAll reports whether every tracked intruder is horizontally
// diverging (positive range rate) and outside the conflict radius — the
// condition for discontinuing an active advisory.
func clearOfAll(ownPos, ownVel geom.Vec3, tracks []geom.Track, dmod float64) bool {
	for _, tr := range tracks {
		dp := tr.Pos.Sub(ownPos).Horizontal()
		if dp.Norm() <= dmod || !(dp.Dot(tr.Vel.Sub(ownVel).Horizontal()) > 0) {
			return false
		}
	}
	return true
}

// Logic is the online collision avoidance executive for one aircraft: it
// tracks the active advisory, derives the MDP state (tau, h, vertical
// rates) of every tracked intruder from surveillance, and queries the
// logic table at the point estimate.
//
// Logic is not safe for concurrent use; each aircraft owns one instance.
type Logic struct {
	executive
}

// NewLogic creates an executive around a built or loaded table.
func NewLogic(table *Table) *Logic {
	return &Logic{executive{table: table}}
}

// Decide runs one decision cycle. own is the aircraft's own state (assumed
// perfectly known); tracks are the intruder tracks from surveillance
// (possibly noisy/filtered, at least one); mask carries coordination
// constraints. Several tracks fuse worst-case-first (see executive.cycle).
func (l *Logic) Decide(own uav.State, tracks []geom.Track, mask SenseMask) Decision {
	return l.cycle(own, tracks, mask, l.table.AllQValues)
}

// Command converts the active advisory into a UAV vertical-rate command.
// The boolean is false for COC (no command; the caller should clear any
// active command).
func (d Decision) Command() (uav.Command, bool) {
	if d.Advisory == COC {
		return uav.Command{}, false
	}
	return uav.Command{
		HasVS:      true,
		TargetVS:   d.Advisory.TargetRate(),
		Strengthen: d.Advisory.Strengthened(),
	}, true
}

// effectiveTau derives the decision tau. The base definition is the
// horizontal time-to-conflict (geom.Tau). With Config.UseVerticalTau, a
// horizontal tau of zero (already inside DMOD and converging) is replaced
// by the time until the vertical separation closes into the NMAC band —
// the revision that removes the slow-closure blind spot.
func effectiveTau(cfg *Config, ownPos, ownVel, intrPos, intrVel geom.Vec3, h, dh0, dh1 float64) float64 {
	tau := geom.Tau(ownPos, ownVel, intrPos, intrVel, cfg.DMOD)
	if !cfg.UseVerticalTau || tau > 0 {
		return tau
	}
	// Horizontally in conflict now. If also vertically inside the NMAC
	// band, the conflict is immediate.
	band := cfg.Cost.NMACVertical
	if h <= band && h >= -band {
		return 0
	}
	// Time for |h| to shrink to the band at the current relative vertical
	// rate; no imminent conflict when vertically diverging.
	rv := dh1 - dh0
	closing := h*rv < 0
	if !closing || rv == 0 {
		return geom.TauUnbounded
	}
	abs := h
	if abs < 0 {
		abs = -abs
	}
	rate := rv
	if rate < 0 {
		rate = -rate
	}
	return (abs - band) / rate
}

// CoordinationMask returns the sense restriction an aircraft broadcasting
// advisory a imposes on its peer: the peer must not maneuver in the same
// direction.
func CoordinationMask(a Advisory) SenseMask {
	switch a.Sense() {
	case SenseUp:
		return SenseMask{BanUp: true}
	case SenseDown:
		return SenseMask{BanDown: true}
	default:
		return SenseMask{}
	}
}

// NMAC reports whether two aircraft states constitute a near mid-air
// collision under the standard cylinder (500 ft horizontal, 100 ft
// vertical) — the paper's mid-air collision criterion.
func NMAC(a, b geom.Vec3) bool {
	return a.HorizontalDistanceTo(b) < geom.NMACHorizontal &&
		math.Abs(a.Z-b.Z) < geom.NMACVertical
}
