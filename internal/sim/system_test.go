package sim

import (
	"reflect"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// evader is a minimal test system: it climbs whenever the first tracked
// intruder is within range.
type evader struct {
	rangeM   float64
	alerting bool
}

func (e *evader) DecideTracks(now float64, own uav.State, tracks []geom.Track, c Constraint) Decision {
	return e.Decide(now, own, tracks[0].Pos, tracks[0].Vel, c)
}

func (e *evader) Decide(_ float64, own uav.State, intrPos, _ geom.Vec3, c Constraint) Decision {
	if own.Pos.DistanceSquaredTo(intrPos) > e.rangeM*e.rangeM {
		e.alerting = false
		return Decision{}
	}
	newAlert := !e.alerting
	e.alerting = true
	vs := 7.0
	sense := SenseUp
	if c.BanUp {
		vs, sense = -7.0, SenseDown
	}
	return Decision{
		Cmd:      uav.Command{HasVS: true, TargetVS: vs},
		HasCmd:   true,
		Alerting: true,
		NewAlert: newAlert,
		Sense:    sense,
	}
}

func (e *evader) Reset() { e.alerting = false }

// TestAdaptPassesThroughAvoidanceSystems: Adapt is the identity, so a
// wrapper holding Adapt(s) dispatches to the system's own DecideTracks.
func TestAdaptPassesThroughAvoidanceSystems(t *testing.T) {
	s := NoSystem{}
	if got := Adapt(s); got != AvoidanceSystem(s) {
		t.Errorf("Adapt(NoSystem) = %T, want the system itself", got)
	}
	table := getTable(t)
	ax := NewACASXU(table)
	if got := Adapt(ax); got != AvoidanceSystem(ax) {
		t.Errorf("Adapt(*ACASXU) = %T, want the system itself", got)
	}
}

// TestNoSystemDecideTracks: the unequipped baseline stays silent on the
// multi-track contract too.
func TestNoSystemDecideTracks(t *testing.T) {
	d := NoSystem{}.DecideTracks(0, uav.State{}, []geom.Track{{Pos: geom.Vec3{X: 1}}}, Constraint{})
	if !reflect.DeepEqual(d, Decision{}) {
		t.Errorf("NoSystem.DecideTracks = %+v, want zero decision", d)
	}
}

// TestACASXUDecideTracksMatchesDispatch: both table executives' DecideTracks
// must be exactly the acasx executive's multi-track cycle, which resolves
// one track through the pairwise Decide and fuses several.
func TestACASXUDecideTracksMatchesDispatch(t *testing.T) {
	table := getTable(t)
	own := uav.State{Pos: geom.Vec3{Z: 300}, Vel: geom.Velocity{Gs: 30}}
	tracks := []geom.Track{
		{Pos: geom.Vec3{X: 600, Z: 310}, Vel: geom.Vec3{X: -28}},
		{Pos: geom.Vec3{X: -900, Z: 280}, Vel: geom.Vec3{X: 25}},
	}
	mask := acasx.SenseMask{BanDown: true}
	c := Constraint{BanDown: true}
	for _, n := range []int{1, 2} {
		logic := acasx.NewLogic(table)
		var want acasx.Decision
		if n == 1 {
			want = logic.Decide(own, tracks[0].Pos, tracks[0].Vel, mask)
		} else {
			want = logic.DecideMulti(own, tracks[:n], mask)
		}
		if got := NewACASXU(table).DecideTracks(0, own, tracks[:n], c); !reflect.DeepEqual(got, fromACASDecision(want)) {
			t.Errorf("ACASXU n=%d: DecideTracks %+v, want %+v", n, got, fromACASDecision(want))
		}

		sigmas := acasx.DefaultBeliefSigmas()
		belief, err := acasx.NewBeliefLogic(table, sigmas)
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			want = belief.Decide(own, tracks[0].Pos, tracks[0].Vel, mask)
		} else {
			want = belief.DecideMulti(own, tracks[:n], mask)
		}
		sys, err := NewACASXUBelief(table, sigmas)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.DecideTracks(0, own, tracks[:n], c); !reflect.DeepEqual(got, fromACASDecision(want)) {
			t.Errorf("ACASXUBelief n=%d: DecideTracks %+v, want %+v", n, got, fromACASDecision(want))
		}
	}
}
