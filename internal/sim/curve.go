package sim

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// EmpiricalCurve is the Monte Carlo counterpart of the exact worst-case
// curve (core.WorstCaseCurve): one batch of runs under a single policy
// yields the empirical probability of reaching the target within t for
// every requested deadline at once.
type EmpiricalCurve struct {
	// Deadlines are the evaluated horizons, ascending.
	Deadlines []float64
	// At[i] is the Bernoulli estimate for Deadlines[i].
	At []stats.Proportion
}

// Point returns the estimate and its 95% Wilson interval at index i.
func (c EmpiricalCurve) Point(i int) (est, lo, hi float64, err error) {
	est, err = c.At[i].Estimate()
	if err != nil {
		return 0, 0, 0, err
	}
	lo, hi, err = c.At[i].Wilson(1.96)
	return est, lo, hi, err
}

// curveDeadlines validates and sorts the requested horizons; the curve
// estimator evaluates this canonical ascending copy.
func curveDeadlines(deadlines []float64) ([]float64, error) {
	if len(deadlines) == 0 {
		return nil, fmt.Errorf("sim: no deadlines")
	}
	ds := append([]float64(nil), deadlines...)
	sort.Float64s(ds)
	return ds, nil
}
