package uav

import (
	"math"
	"math/rand/v2"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/stats"
)

// headingErr is the distance between the carried unit heading and
// math.Sincos of the canonical bearing.
func headingErr(u *UAV) float64 {
	s, c := math.Sincos(u.st.Vel.Psi)
	return math.Hypot(u.hdgCos-c, u.hdgSin-s)
}

// requireExactHeading fails unless the heading vector is bit-identical to
// math.Sincos of the bearing.
func requireExactHeading(t *testing.T, label string, u *UAV) {
	t.Helper()
	s, c := math.Sincos(u.st.Vel.Psi)
	if u.hdgCos != c || u.hdgSin != s {
		t.Fatalf("%s: heading (%v, %v), want Sincos(%v) = (%v, %v)",
			label, u.hdgCos, u.hdgSin, u.st.Vel.Psi, c, s)
	}
}

// TestHeadingVectorTracksBearing steps a noisy aircraft a million times at
// the engine's dt with a heading command every 1000 steps: the rotated
// heading vector must stay within 1e-12 of math.Sincos of the bearing.
func TestHeadingVectorTracksBearing(t *testing.T) {
	cfg := DefaultConfig()
	u, err := New(cfg, State{Pos: geom.Vec3{Z: 1000}, Vel: geom.Velocity{Gs: 50, Psi: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)
	worst := 0.0
	for i := 0; i < 1_000_000; i++ {
		if i%1000 == 0 {
			// Alternate between holding the plan and turning toward a
			// fresh bearing anywhere on the circle.
			if i%2000 == 0 {
				u.Command(Command{HasHeading: true, TargetHeading: 2 * math.Pi * rng.Float64()})
			} else {
				u.ClearCommand()
			}
		}
		u.Step(0.1, rng)
		if e := headingErr(u); e > worst {
			worst = e
		}
	}
	if worst > 1e-12 {
		t.Fatalf("heading vector drifted %.3g from Sincos(psi), want <= 1e-12", worst)
	}
	t.Logf("worst heading drift over 1e6 steps: %.3g", worst)
}

// TestResetRederivesHeading: Reset re-seeds the heading vector exactly,
// whatever the rotations before it.
func TestResetRederivesHeading(t *testing.T) {
	start := State{Vel: geom.Velocity{Gs: 40, Psi: 5.9}}
	u, err := New(DefaultConfig(), start)
	if err != nil {
		t.Fatal(err)
	}
	requireExactHeading(t, "new", u)
	rng := stats.NewRNG(3)
	u.Command(Command{HasHeading: true, TargetHeading: 1})
	for i := 0; i < 500; i++ {
		u.Step(0.1, rng)
	}
	u.Reset(start)
	requireExactHeading(t, "reset", u)
	u.Reset(State{Vel: geom.Velocity{Gs: 40, Psi: 2.2}})
	requireExactHeading(t, "reset elsewhere", u)
}

// TestLargeTurnFallsBackToSincos: a dt = 1 standard-rate turn exceeds
// rotateMax, so the step re-derives the heading from the bearing exactly
// instead of rotating.
func TestLargeTurnFallsBackToSincos(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseDelay = 0
	if cfg.TurnRate*1 <= rotateMax {
		t.Fatalf("turn of %v rad does not exceed rotateMax %v", cfg.TurnRate, rotateMax)
	}
	u, err := New(cfg, State{Vel: geom.Velocity{Gs: 50, Psi: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	u.Command(Command{HasHeading: true, TargetHeading: 2})
	for i := 0; i < 5; i++ {
		u.Step(1, nil)
		requireExactHeading(t, "dt=1 turn", u)
	}
}

// sincosStep is the reference kinematic step the rotated stepper is held
// to: it re-derives the Cartesian velocity from the bearing with
// math.Sincos every step.
func sincosStep(u *UAV, dt float64, rng *rand.Rand) {
	if u.hasCmd && u.delayLeft > 0 {
		u.delayLeft -= dt
	}
	targetVS, accel := u.targetVS()
	dv := geom.Clamp(targetVS-u.st.Vel.Vs, -accel*dt, accel*dt)
	vs := u.st.Vel.Vs + dv
	gs := u.st.Vel.Gs
	psi := u.st.Vel.Psi + u.headingStep(dt)
	if rng != nil {
		sqrtDt := math.Sqrt(dt)
		vs += u.cfg.VerticalNoise * rng.NormFloat64() * sqrtDt
		gs += u.cfg.SpeedNoise * rng.NormFloat64() * sqrtDt
		psi += u.cfg.HeadingNoise * rng.NormFloat64() * sqrtDt
	}
	vs = geom.Clamp(vs, -u.cfg.MaxVerticalRate, u.cfg.MaxVerticalRate)
	if gs < 0 {
		gs = 0
	}
	u.st.Vel = geom.Velocity{Gs: gs, Psi: geom.WrapAngle(psi), Vs: vs}
	u.st.Pos = u.st.Pos.Add(u.st.Vel.Vec().Scale(dt))
}

// TestRotatedStepMatchesSincosStep flies one 700-step noisy episode with a
// climb and a turn through both steppers on the same disturbance stream:
// the positions must agree within 1e-6 m throughout.
func TestRotatedStepMatchesSincosStep(t *testing.T) {
	start := State{Pos: geom.Vec3{X: -3000, Z: 1500}, Vel: geom.Velocity{Gs: 45, Psi: 6.2, Vs: 1}}
	rot, err := New(DefaultConfig(), start)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(DefaultConfig(), start)
	if err != nil {
		t.Fatal(err)
	}
	rngRot, rngRef := stats.NewRNG(21), stats.NewRNG(21)
	worst := 0.0
	for i := 0; i < 700; i++ {
		switch i {
		case 100:
			cmd := Command{HasVS: true, TargetVS: -6, HasHeading: true, TargetHeading: 0.9}
			rot.Command(cmd)
			ref.Command(cmd)
		case 400:
			rot.ClearCommand()
			ref.ClearCommand()
		}
		rot.Step(0.1, rngRot)
		sincosStep(ref, 0.1, rngRef)
		if d := rot.State().Pos.DistanceTo(ref.State().Pos); d > worst {
			worst = d
		}
	}
	if worst > 1e-6 {
		t.Fatalf("rotated stepper drifted %.3g m from the Sincos stepper, want <= 1e-6", worst)
	}
	t.Logf("worst position drift over 700 steps: %.3g m", worst)
}
