package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/shapes"
	"repro/internal/spn"
)

// parallelGrid is the PR 2 parameter grid the sequential-vs-reference
// isomorphism test runs on (explore_equiv_test.go); the concurrency
// property test reuses it so exploration is pinned over the same models.
func parallelGrid() []struct {
	name string
	cfg  Config
} {
	var grid []struct {
		name string
		cfg  Config
	}
	for _, n := range []int{6, 11, 16} {
		for _, mg := range []int{1, 3} {
			for _, det := range []shapes.Kind{shapes.Linear, shapes.Polynomial} {
				for _, explicit := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.N = n
					cfg.MaxGroups = mg
					cfg.Detection = det
					cfg.ExplicitEviction = explicit
					grid = append(grid, struct {
						name string
						cfg  Config
					}{fmt.Sprintf("N%d_g%d_%v_ev%v", n, mg, det, explicit), cfg})
				}
			}
		}
	}
	ch := DefaultConfig()
	ch.N = 11
	ch.Protocol = ProtocolClusterHead
	grid = append(grid, struct {
		name string
		cfg  Config
	}{"clusterhead_N11", ch})
	return grid
}

// exploreConfig builds the model for cfg and returns its reachability graph.
func exploreConfig(cfg Config) (*spn.Graph, error) {
	model, err := BuildModel(cfg)
	if err != nil {
		return nil, err
	}
	return model.Explore()
}

// graphsEqual reports the first difference between got and want's state
// numbering, initial state and edge arena, or "" when they are identical.
func graphsEqual(want, got *spn.Graph) string {
	if got.NumStates() != want.NumStates() {
		return fmt.Sprintf("%d states, sequential %d", got.NumStates(), want.NumStates())
	}
	if got.NumEdges() != want.NumEdges() {
		return fmt.Sprintf("%d edges, sequential %d", got.NumEdges(), want.NumEdges())
	}
	if got.Initial != want.Initial {
		return fmt.Sprintf("initial %d, sequential %d", got.Initial, want.Initial)
	}
	for i := range want.States {
		if want.States[i].Key() != got.States[i].Key() {
			return fmt.Sprintf("state %d is %s, sequential %s", i, got.States[i].Key(), want.States[i].Key())
		}
		if len(want.Edges[i]) != len(got.Edges[i]) {
			return fmt.Sprintf("state %d has %d edges, sequential %d", i, len(got.Edges[i]), len(want.Edges[i]))
		}
		for j, e := range want.Edges[i] {
			if got.Edges[i][j] != e {
				return fmt.Sprintf("state %d edge %d is %+v, sequential %+v", i, j, got.Edges[i][j], e)
			}
		}
	}
	return ""
}

// TestExploreParallelMatchesSequential pins the determinism the batch
// worker pool relies on: for every model of the PR 2 parameter grid and
// every goroutine count P in {1, 2, 4, 8}, P models of the same Config
// built and explored concurrently (as RunBatch's workers do) must each
// yield the SAME state numbering and edge arena as one sequential
// exploration — not merely an isomorphic graph. Model construction and
// exploration therefore share no mutable state across goroutines, and
// downstream CSR assembly and solution vectors are identical.
func TestExploreParallelMatchesSequential(t *testing.T) {
	for _, v := range parallelGrid() {
		t.Run(v.name, func(t *testing.T) {
			seq, err := exploreConfig(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 4, 8} {
				graphs := make([]*spn.Graph, p)
				errs := make([]error, p)
				var wg sync.WaitGroup
				for w := 0; w < p; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						graphs[w], errs[w] = exploreConfig(v.cfg)
					}(w)
				}
				wg.Wait()
				for w := 0; w < p; w++ {
					if errs[w] != nil {
						t.Fatalf("P=%d worker %d: %v", p, w, errs[w])
					}
					if diff := graphsEqual(seq, graphs[w]); diff != "" {
						t.Fatalf("P=%d worker %d: %s", p, w, diff)
					}
				}
			}
		})
	}
}

// TestParallelEvaluationEquivalence runs the full metric pipeline through
// the batch worker pool and asserts the Results are identical to the
// sequential ones: same graph => same CTMC => same single solve.
func TestParallelEvaluationEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 16
	seqRes, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{cfg, cfg, cfg, cfg}
	parRes, err := Direct{Workers: 4}.EvalBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range parRes {
		if seqRes.MTTSF != r.MTTSF {
			t.Errorf("point %d: MTTSF %v (parallel) != %v (sequential)", i, r.MTTSF, seqRes.MTTSF)
		}
		if seqRes.Ctotal != r.Ctotal {
			t.Errorf("point %d: Ctotal %v (parallel) != %v (sequential)", i, r.Ctotal, seqRes.Ctotal)
		}
	}
}
