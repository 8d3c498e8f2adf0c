// Package core holds the paper's contribution that is independent of the
// search engine: the fitness definition of the GA-based hunt for two-UAV
// encounters where a collision avoidance system behaves poorly (section
// V-VII), and the analysis of what the hunt found.
//
// Encounters are encoded as 9-gene genomes (internal/encounter); each
// genome is scored by a batch of stochastic closed-loop simulations, and
// the paper's fitness
//
//	fitness = (1/K) * sum_k 10000 / (1 + d_k)
//
// (d_k the minimum separation of run k; a mid-air collision gives the
// maximum gain 10000) steers the GA toward encounters the system cannot
// resolve. The search itself runs on internal/search (one island is the
// paper's single-population GA); its evaluation log feeds the section VII
// analysis here: the geometry tally, the top-K report, k-means clusters
// and the GA-versus-random comparison.
package core

import (
	"fmt"

	"acasxval/internal/montecarlo"
	"acasxval/internal/sim"
)

// SystemFactory builds fresh collision avoidance systems for the two
// aircraft of one simulation. Factories are called per evaluation (possibly
// concurrently), so the returned systems need not be shareable.
type SystemFactory = montecarlo.SystemFactory

// FitnessConfig parameterizes the paper's fitness function.
type FitnessConfig struct {
	// SimsPerEncounter is K, the number of stochastic simulations averaged
	// per encounter (paper: 100).
	SimsPerEncounter int
	// CollisionGain is the numerator constant (paper: 10000, matching the
	// MDP's collision cost).
	CollisionGain float64
	// Run configures each simulation.
	Run sim.RunConfig
}

// DefaultFitnessConfig returns the paper's settings.
func DefaultFitnessConfig() FitnessConfig {
	return FitnessConfig{
		SimsPerEncounter: 100,
		CollisionGain:    10000,
		Run:              sim.DefaultRunConfig(),
	}
}

// Validate checks the configuration.
func (c FitnessConfig) Validate() error {
	if c.SimsPerEncounter < 1 {
		return fmt.Errorf("core: SimsPerEncounter %d < 1", c.SimsPerEncounter)
	}
	if c.CollisionGain <= 0 {
		return fmt.Errorf("core: CollisionGain %v <= 0", c.CollisionGain)
	}
	return c.Run.Validate()
}
