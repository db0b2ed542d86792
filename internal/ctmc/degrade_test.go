package ctmc

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// chaosSeeds returns the fixed seed matrix the chaos tests run over; CI
// adds seeds through REPRO_CHAOS_SEED without editing the list.
func chaosSeeds(t *testing.T) []uint64 {
	t.Helper()
	seeds := []uint64{1, 2, 3}
	if s := os.Getenv("REPRO_CHAOS_SEED"); s != "" {
		extra, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("REPRO_CHAOS_SEED=%q: %v", s, err)
		}
		seeds = append(seeds, extra)
	}
	return seeds
}

// denseReference solves the chain's sojourn system with dense LU directly.
func denseReference(t *testing.T, c *Chain, init int) linalg.Vector {
	t.Helper()
	at := c.subGeneratorT()
	rhs := linalg.NewVector(c.NumTransient())
	rhs[c.tIdx[init]] = -1
	want, err := linalg.SolveDense(at.Dense(), rhs)
	if err != nil {
		t.Fatal(err)
	}
	full := linalg.NewVector(c.NumStates())
	for ti, i := range c.tRev {
		full[i] = want[ti]
	}
	return full
}

// TestValidateSolveGate pins the admission gate: non-finite entries and
// wrong solutions are rejected, converged ones pass.
func TestValidateSolveGate(t *testing.T) {
	a := linalg.NewCSRFromRows(2, 2, []linalg.Coord{
		{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 4},
	})
	rhs := linalg.Vector{2, 8}
	if err := validateSolve(a, rhs, linalg.Vector{1, 2}); err != nil {
		t.Errorf("exact solution rejected: %v", err)
	}
	if err := validateSolve(a, rhs, linalg.Vector{math.NaN(), 2}); err == nil {
		t.Error("NaN solution admitted")
	}
	if err := validateSolve(a, rhs, linalg.Vector{math.Inf(1), 2}); err == nil {
		t.Error("Inf solution admitted")
	}
	if err := validateSolve(a, rhs, linalg.Vector{5, -3}); err == nil {
		t.Error("wrong solution admitted past the residual gate")
	}
}

// TestDegradationLadder forces every failure mode on every primary backend
// at rate 1 and requires the degraded result to match dense LU to 1e-10 —
// the acceptance bar: a breakdown changes which rung answers, never the
// answer.
func TestDegradationLadder(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	rng := rand.New(rand.NewSource(7))
	ref := randAbsorbingChain(rng, 40)
	want := denseReference(t, ref, 0)

	faults := []string{faultinject.SolverBreakdown, faultinject.SolverNonFinite}
	for _, name := range []string{BackendSORCascade, BackendILUBiCGSTAB, BackendAuto} {
		b, err := SolverBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, fault := range faults {
			faultinject.Disable()
			before := FallbacksByBackend()
			faultinject.Enable(faultinject.Plan{Seed: 1, Rates: map[string]float64{fault: 1}})

			c := chainLike(ref)
			c.SetSolver(b)
			sol, err := c.Solve(0)
			if err != nil {
				t.Fatalf("backend %s under %s: %v", name, fault, err)
			}
			y := sol.SojournTimes()
			for i := range want {
				if !approx(y[i], want[i], 1e-10) {
					t.Fatalf("backend %s under %s: y[%d] = %g, dense LU %g", name, fault, i, y[i], want[i])
				}
			}
			faultinject.Disable()
			after := FallbacksByBackend()
			total := uint64(0)
			for k, v := range after {
				total += v - before[k]
			}
			if total == 0 {
				t.Errorf("backend %s under %s: no fallback counted", name, fault)
			}
		}
	}
}

// TestDegradationUnderRandomSchedule runs the seed matrix at partial fault
// rates across repeated solves: every solve must still agree with dense LU.
func TestDegradationUnderRandomSchedule(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	rng := rand.New(rand.NewSource(11))
	ref := randAbsorbingChain(rng, 30)
	want := denseReference(t, ref, 0)

	for _, seed := range chaosSeeds(t) {
		faultinject.Enable(faultinject.Plan{Seed: seed, Rates: map[string]float64{
			faultinject.SolverBreakdown: 0.4,
			faultinject.SolverNonFinite: 0.3,
		}})
		for trial := 0; trial < 20; trial++ {
			c := chainLike(ref)
			sol, err := c.Solve(0)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			y := sol.SojournTimes()
			for i := range want {
				if !approx(y[i], want[i], 1e-10) {
					t.Fatalf("seed %d trial %d: y[%d] = %g, want %g", seed, trial, i, y[i], want[i])
				}
			}
		}
		faultinject.Disable()
	}
}

// TestInvalidEnvBackendDoesNotDegrade pins that operator misconfiguration
// still fails loudly: the degradation ladder must not rescue a typo'd
// REPRO_SOLVER by quietly solving on a fallback rung.
func TestInvalidEnvBackendDoesNotDegrade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randAbsorbingChain(rng, 10)
	c.SetSolver(invalidEnvBackend{name: "no-such-solver"})
	if _, err := c.Solve(0); err == nil {
		t.Fatal("invalid env backend solved without error; the ladder rescued a misconfiguration")
	}
}
