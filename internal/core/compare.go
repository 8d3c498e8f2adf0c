package core

import (
	"math"

	"acasxval/internal/ga"
	"acasxval/internal/stats"
)

// ComparisonResult aggregates a multi-seed GA-versus-random-search
// comparison at equal evaluation budget — the quantitative form of the
// paper's section V claim that the GA "can find some cases that a
// random-search-based approach took a long time to find". Build it by
// setting Threshold and calling Add once per seed.
type ComparisonResult struct {
	// Seeds is the number of independent repetitions.
	Seeds int
	// Threshold is the fitness defining a "found case".
	Threshold float64
	// GAFirst / RandomFirst are the per-seed evaluation counts to the
	// first case (seeds that never reach it are excluded).
	GAFirst, RandomFirst []float64
	// GAHits / RandomHits are the per-seed counts of evaluations at or
	// above the threshold.
	GAHits, RandomHits []float64
	// GABest / RandomBest are the per-seed best fitness values.
	GABest, RandomBest []float64
}

// MedianFirst returns the median evaluations-to-first-case of each arm
// (-1 when an arm never reached the threshold on any seed).
func (c ComparisonResult) MedianFirst() (gaFirst, rndFirst float64) {
	gaFirst, rndFirst = -1, -1
	if len(c.GAFirst) > 0 {
		gaFirst = stats.Median(c.GAFirst)
	}
	if len(c.RandomFirst) > 0 {
		rndFirst = stats.Median(c.RandomFirst)
	}
	return gaFirst, rndFirst
}

// MedianHits returns the median number of found cases per budget for each
// arm.
func (c ComparisonResult) MedianHits() (gaHits, rndHits float64) {
	return stats.Median(c.GAHits), stats.Median(c.RandomHits)
}

// ConcentrationGain is the ratio of GA to random median hits: how many
// times more challenging encounters the GA surfaces per simulation budget.
// Returns +Inf when random finds none but the GA does, 1 when both find
// none.
func (c ComparisonResult) ConcentrationGain() float64 {
	gaHits, rndHits := c.MedianHits()
	if rndHits == 0 {
		if gaHits == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return gaHits / rndHits
}

// Add records one repetition: the GA's evaluation log and the random
// baseline's, scored against c.Threshold.
func (c *ComparisonResult) Add(gaLog, rndLog []ga.Evaluation) {
	c.Seeds++
	if at := EvaluationsToReach(gaLog, c.Threshold); at > 0 {
		c.GAFirst = append(c.GAFirst, float64(at))
	}
	if at := EvaluationsToReach(rndLog, c.Threshold); at > 0 {
		c.RandomFirst = append(c.RandomFirst, float64(at))
	}
	gaHits, gaBest := scoreLog(gaLog, c.Threshold)
	rndHits, rndBest := scoreLog(rndLog, c.Threshold)
	c.GAHits = append(c.GAHits, gaHits)
	c.RandomHits = append(c.RandomHits, rndHits)
	c.GABest = append(c.GABest, gaBest)
	c.RandomBest = append(c.RandomBest, rndBest)
}

// scoreLog counts the evaluations at or above threshold and finds the best
// fitness of a log.
func scoreLog(evals []ga.Evaluation, threshold float64) (hits, best float64) {
	best = math.Inf(-1)
	for _, e := range evals {
		if e.Fitness >= threshold {
			hits++
		}
		best = math.Max(best, e.Fitness)
	}
	return hits, best
}
