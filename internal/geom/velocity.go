package geom

import "math"

// Velocity is the polar representation of a UAV velocity used by the paper:
// ground speed Gs, bearing Psi (radians, measured from the +X axis toward
// +Y), and vertical speed Vs (positive up). Equation (1) of the paper relates
// it to Cartesian components:
//
//	Vx = Gs * cos(Psi)
//	Vy = Gs * sin(Psi)
//	Vz = Vs
type Velocity struct {
	Gs  float64 // ground speed, m/s (>= 0)
	Psi float64 // bearing, radians in [0, 2*pi)
	Vs  float64 // vertical speed, m/s (positive up)
}

// Vec converts the polar representation to Cartesian components per
// equation (1), with one math.Sincos (a shared argument reduction, about
// half the cost of separate Cos/Sin calls). The vehicle step does not call
// it: uav.UAV carries its unit heading and rotates it instead. Vec serves
// the surveillance reports, decision logics and trajectory consumers.
func (v Velocity) Vec() Vec3 {
	sin, cos := math.Sincos(v.Psi)
	return Vec3{
		X: v.Gs * cos,
		Y: v.Gs * sin,
		Z: v.Vs,
	}
}

// VelocityFromVec converts Cartesian velocity components back to the polar
// representation. The bearing of a zero horizontal velocity is 0.
func VelocityFromVec(v Vec3) Velocity {
	gs := v.HorizontalNorm()
	psi := 0.0
	if gs > 0 {
		psi = WrapAngle(math.Atan2(v.Y, v.X))
	}
	return Velocity{Gs: gs, Psi: psi, Vs: v.Z}
}

// Normalize returns the velocity with a non-negative ground speed and a
// bearing wrapped into [0, 2*pi). A negative Gs is folded into the bearing.
func (v Velocity) Normalize() Velocity {
	if v.Gs < 0 {
		v.Gs = -v.Gs
		v.Psi += math.Pi
	}
	v.Psi = WrapAngle(v.Psi)
	return v
}
