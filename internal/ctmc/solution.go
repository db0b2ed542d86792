package ctmc

import (
	"fmt"
	"sync/atomic"

	"repro/internal/linalg"
)

// solveCount counts invocations of the transient linear-solve cascade. The
// evaluation engine's tests use it to assert that one Analyze performs
// exactly one solve; it deliberately counts solve() entries, not the
// individual SOR/BiCGSTAB/LU attempts inside the cascade.
var solveCount atomic.Uint64

// solveIters accumulates the iteration counts reported by the iterative
// solvers inside the cascade (SOR sweeps plus BiCGSTAB steps when the
// fallback runs). The benchmark harness divides its delta by the solve
// count to report iterations per solve.
var solveIters atomic.Uint64

// SolveCount returns the cumulative number of transient linear solves
// performed by this process.
func SolveCount() uint64 { return solveCount.Load() }

// SolveIterations returns the cumulative number of iterative-solver
// iterations spent inside the transient solve cascade.
func SolveIterations() uint64 { return solveIters.Load() }

// Solution captures one sojourn-time solve of a chain for a fixed initial
// state. Every absorption functional of the chain — mean time to
// absorption, accumulated rewards, absorption-probability splits — is a
// linear functional of the sojourn vector, so deriving them from a
// Solution costs no further linear solves.
type Solution struct {
	chain *Chain
	init  int
	y     linalg.Vector // expected sojourn time per state before absorption
}

// Solve performs the single transient solve for a chain started in init
// and returns the Solution all downstream metrics derive from.
func (c *Chain) Solve(init int) (*Solution, error) {
	y, err := c.SojournTimes(init)
	if err != nil {
		return nil, err
	}
	return &Solution{chain: c, init: init, y: y}, nil
}

// Chain returns the chain this solution belongs to.
func (s *Solution) Chain() *Chain { return s.chain }

// Init returns the initial state the solve was anchored at.
func (s *Solution) Init() int { return s.init }

// SojournTimes returns the expected total time spent in each state before
// absorption (shared slice; do not mutate).
func (s *Solution) SojournTimes() linalg.Vector { return s.y }

// MeanTimeToAbsorption returns the expected time until absorption. It
// errors when the chain has no absorbing states (infinite expectation).
func (s *Solution) MeanTimeToAbsorption() (float64, error) {
	if s.chain.NumTransient() == s.chain.n {
		return 0, fmt.Errorf("ctmc: chain has no absorbing states; MTTA is infinite")
	}
	return s.y.Sum(), nil
}

// AccumulatedReward returns E[∫ r(X_t) dt until absorption | X_0 = init]
// for a per-state reward-rate vector r of length NumStates — a dot
// product, no additional solve.
func (s *Solution) AccumulatedReward(reward linalg.Vector) (float64, error) {
	if len(reward) != s.chain.n {
		return 0, fmt.Errorf("ctmc: reward vector length %d, want %d", len(reward), s.chain.n)
	}
	return s.y.Dot(reward), nil
}

// AbsorptionProbabilities returns, densely over all states, the
// probability of being absorbed in each absorbing state a (zero on
// transient states), derived from the sojourn vector via
// P(absorb in a) = Σ_j y[j]·q[j][a] over transient j — no additional
// solve. Accumulation and normalization both run in state order, so two
// calls on equal solutions return bitwise-equal vectors.
func (s *Solution) AbsorptionProbabilities() []float64 {
	c := s.chain
	probs := make([]float64, c.n)
	if c.absorbing[s.init] {
		probs[s.init] = 1
		return probs
	}
	for _, j := range c.tRev {
		yj := s.y[j]
		if yj == 0 {
			continue
		}
		for k := c.q.RowPtr[j]; k < c.q.RowPtr[j+1]; k++ {
			if dst := c.q.ColIdx[k]; dst != j && c.absorbing[dst] {
				probs[dst] += yj * c.q.Val[k]
			}
		}
	}
	// Clamp tiny numerical drift.
	total := 0.0
	for _, p := range probs {
		total += p
	}
	if total > 0 {
		for k := range probs {
			probs[k] /= total
		}
	}
	return probs
}
