package sim

import (
	"fmt"
	"reflect"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// passNone delegates every call to NoSystem without being NoSystem, so
// the engine runs the full surveillance half of its decision cycle.
type passNone struct{ NoSystem }

// probe alerts from its first decision on and commands a vertical rate
// that is a continuous function of the track it is handed, so any change
// in what it observes moves its trajectory.
type probe struct{ alerted bool }

func (p *probe) Decide(_ float64, own uav.State, pos, _ geom.Vec3, _ Constraint) Decision {
	d := Decision{
		Cmd:      uav.Command{HasVS: true, TargetVS: (own.Pos.Z - pos.Z) / 100},
		HasCmd:   true,
		Alerting: true,
		NewAlert: !p.alerted,
	}
	p.alerted = true
	return d
}

func (p *probe) Reset() { p.alerted = false }

// TestUnequippedSkipIdentity: skipping the surveillance of NoSystem
// aircraft must not move a bit. Every preset episode is flown with bare
// NoSystem and with the pass-through wrapper in each unequipped slot,
// under faults none/severe and tracker on/off, solo and through the
// lockstep Batch; results (and the recorded trajectory, solo) must be
// identical.
func TestUnequippedSkipIdentity(t *testing.T) {
	severe, err := fault.Preset("severe")
	if err != nil {
		t.Fatal(err)
	}
	table := getTable(t)
	// Each pattern equips the ownship and the intruders; nil marks an
	// unequipped slot.
	patterns := []struct {
		name      string
		own, intr func() System
	}{
		{"all-unequipped", nil, nil},
		{"own-probe", func() System { return &probe{} }, nil},
		{"intruders-probe", nil, func() System { return &probe{} }},
		{"own-acasx", func() System { return NewACASXU(table) }, nil},
	}
	build := func(k int, own, intr func() System, none System) []System {
		pick := func(f func() System) System {
			if f == nil {
				return none
			}
			return f()
		}
		sys := []System{pick(own)}
		for j := 1; j <= k; j++ {
			sys = append(sys, pick(intr))
		}
		return sys
	}
	eps := batchEpisodes(t)
	for _, fp := range []struct {
		name string
		p    fault.Profile
	}{{"none", fault.Profile{}}, {"severe", severe}} {
		for _, tracked := range []bool{true, false} {
			for _, pat := range patterns {
				label := fmt.Sprintf("faults=%s/tracker=%v/%s", fp.name, tracked, pat.name)
				cfg := DefaultRunConfig()
				cfg.Faults = fp.p
				cfg.UseTracker = tracked
				cfg.RecordTrajectory = true
				bare, err := NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				wrapped, err := NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]Result, len(eps))
				ownAlerts, intrAlerts := 0, 0
				for i, ep := range eps {
					k := ep.m.NumIntruders()
					w, err := wrapped.RunMulti(ep.m, build(k, pat.own, pat.intr, passNone{}), ep.seed)
					if err != nil {
						t.Fatal(err)
					}
					g, err := bare.RunMulti(ep.m, build(k, pat.own, pat.intr, NoSystem{}), ep.seed)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, label+"/solo", g, w)
					if !reflect.DeepEqual(g.Trajectory, w.Trajectory) {
						t.Fatalf("%s/solo episode %d: trajectory drifted", label, i)
					}
					ownAlerts += w.OwnAlerts()
					intrAlerts += w.IntruderAlerts()
					w.AlertCounts = append([]int(nil), w.AlertCounts...)
					w.Trajectory = nil
					want[i] = w
				}
				// The equipped slots must still see their peers: a skip
				// that silenced them would pass the identity checks.
				if (pat.own != nil) != (ownAlerts > 0) || (pat.intr != nil) != (intrAlerts > 0) {
					t.Fatalf("%s: %d ownship and %d intruder alerts", label, ownAlerts, intrAlerts)
				}

				bcfg := cfg
				bcfg.RecordTrajectory = false
				b, err := NewBatch(bcfg, 3)
				if err != nil {
					t.Fatal(err)
				}
				b.RunMulti(len(eps),
					func(i, _ int) (encounter.MultiParams, []System, uint64, error) {
						return eps[i].m, build(eps[i].m.NumIntruders(), pat.own, pat.intr, NoSystem{}), eps[i].seed, nil
					},
					func(i int, res Result, err error) {
						if err != nil {
							t.Fatalf("%s/batch episode %d: %v", label, i, err)
						}
						requireSameResult(t, label+"/batch", res, want[i])
					})
			}
		}
	}
}
