package uav

import (
	"fmt"
	"math/rand/v2"

	"acasxval/internal/geom"
)

// ADSBReport is one surveillance message: the broadcast state of an aircraft
// as received by a peer, i.e. the true state corrupted by sensor noise.
type ADSBReport struct {
	// Pos is the reported position.
	Pos geom.Vec3
	// Vel is the reported Cartesian velocity.
	Vel geom.Vec3
	// Time is the simulation time of the report, seconds.
	Time float64
	// Valid is false for a dropped message (reception failure).
	Valid bool
}

// SensorModel describes the ADS-B error model: white noise added to the
// received position and velocity, plus an optional message drop rate. The
// paper: "We assume that in each simulation step the UAVs broadcast their
// state information (position, velocity) via ADS-B. We explicitly model the
// sensor noise by adding white noise to the received information."
type SensorModel struct {
	// HorizontalPosSigma is the standard deviation of horizontal position
	// error, metres (GPS-grade ~ 10 m).
	HorizontalPosSigma float64
	// VerticalPosSigma is the standard deviation of altitude error, metres.
	VerticalPosSigma float64
	// VelSigma is the standard deviation of each velocity component error,
	// m/s.
	VelSigma float64
	// DropRate is the probability that a broadcast is not received at all.
	DropRate float64
}

// DefaultSensorModel returns a GPS/ADS-B-grade error model.
func DefaultSensorModel() SensorModel {
	return SensorModel{
		HorizontalPosSigma: 10,
		VerticalPosSigma:   4,
		VelSigma:           0.5,
		DropRate:           0,
	}
}

// Validate checks the model parameters.
func (m SensorModel) Validate() error {
	if m.HorizontalPosSigma < 0 || m.VerticalPosSigma < 0 || m.VelSigma < 0 {
		return fmt.Errorf("uav: negative sensor sigma")
	}
	if m.DropRate < 0 || m.DropRate > 1 {
		return fmt.Errorf("uav: drop rate %v outside [0, 1]", m.DropRate)
	}
	return nil
}

// Observe produces the ADS-B report a peer receives for the given true
// state at time now. A nil rng yields a noiseless report (useful for
// perfect-surveillance ablations).
func (m SensorModel) Observe(st State, now float64, rng *rand.Rand) ADSBReport {
	rep := ADSBReport{
		Pos:   st.Pos,
		Vel:   st.VelVec(),
		Time:  now,
		Valid: true,
	}
	if rng == nil {
		return rep
	}
	if m.DropRate > 0 && rng.Float64() < m.DropRate {
		rep.Valid = false
		return rep
	}
	// The explicit float64(...) roundings keep each noise term from being
	// fused into an FMA, so reports carry the same bits on every GOARCH.
	rep.Pos.X += float64(m.HorizontalPosSigma * rng.NormFloat64())
	rep.Pos.Y += float64(m.HorizontalPosSigma * rng.NormFloat64())
	rep.Pos.Z += float64(m.VerticalPosSigma * rng.NormFloat64())
	rep.Vel.X += float64(m.VelSigma * rng.NormFloat64())
	rep.Vel.Y += float64(m.VelSigma * rng.NormFloat64())
	rep.Vel.Z += float64(m.VelSigma * rng.NormFloat64())
	return rep
}
