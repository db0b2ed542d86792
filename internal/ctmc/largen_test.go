package ctmc

import (
	"testing"

	"repro/internal/linalg"
)

// largeNChain builds the synthetic large-N benchmark chain: a side x side
// lattice random walk (rate 1 to each neighbour) with a uniform rate-delta
// absorption edge from every cell to one absorbing state. The paper's SPN
// models top out near 10^4 states, so the workload that shows where the
// solver backends part ways is synthetic by necessity — the lattice is the
// canonical operator on which stationary iteration counts grow with N while
// preconditioned-Krylov counts stay nearly flat.
func largeNChain(tb testing.TB, side int) *Chain {
	const delta = 0.02
	n := side * side
	b := linalg.NewSparseBuilder(n+1, n+1)
	idx := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := idx(r, c)
			deg := 0.0
			add := func(j int) {
				b.Add(i, j, 1)
				deg++
			}
			if r > 0 {
				add(idx(r-1, c))
			}
			if r < side-1 {
				add(idx(r+1, c))
			}
			if c > 0 {
				add(idx(r, c-1))
			}
			if c < side-1 {
				add(idx(r, c+1))
			}
			b.Add(i, n, delta)
			b.Add(i, i, -(deg + delta))
		}
	}
	chain, err := NewChain(b.Build())
	if err != nil {
		tb.Fatal(err)
	}
	return chain
}

// BenchmarkSolveLargeN times the transient sojourn solve on the 110x110
// lattice (12,100 transient states) once per backend, plus auto, which
// must route to the Krylov side at this size. It is the measurement behind
// autoKrylovStates. Each run gets a fresh chain, so the first op pays the
// one-time sub-generator assembly and (for ilu-bicgstab) the ILU(0)
// factorization — the per-chain amortization production sees. iters/op
// is the solver iteration count per solve.
func BenchmarkSolveLargeN(b *testing.B) {
	const side = 110
	for _, name := range []string{BackendSORCascade, BackendILUBiCGSTAB, BackendAuto} {
		b.Run(name, func(b *testing.B) {
			backend, err := SolverBackendByName(name)
			if err != nil {
				b.Fatal(err)
			}
			chain := largeNChain(b, side)
			chain.SetSolver(backend)
			iters0 := SolveIterations()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := chain.Solve(0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(SolveIterations()-iters0)/float64(b.N), "iters/op")
		})
	}
}
