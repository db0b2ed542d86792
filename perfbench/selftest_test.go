package main

// The benchmark's self-test: every workload at a short duration, traced
// and untraced, must be correct and print every metric BENCHMARK.json
// names, with its unit; a perturbed stored reference must fail the run.

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/engine"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func testRefs(t *testing.T) *references {
	t.Helper()
	refs, err := loadReferences("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads)+len(diagnostic) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads and %d are diagnostic, the program has %d", len(b.Workloads), len(diagnostic), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || diagnostic[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload of the program", w.Name)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if i < len(perLayerMetrics) && (perLayerMetrics[i].name != m.Name || perLayerMetrics[i].unit != m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	refs := testRefs(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			dir := t.TempDir()
			rep, rec, err := run(workloads[name](7, refs, dir), 2*time.Second, traced, dir, name, 7)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", name, traced, rep.Correct, rep.Attempted, rep.Failed, rec.Wrong)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestPerturbedReferenceFails(t *testing.T) {
	for _, name := range []string{"design_sweep_cold", "tids_sweep_incremental"} {
		refs := testRefs(t)
		// Perturb every stored value, so whichever sample the seed draws
		// is off by far more than the tolerance.
		for i := range refs.Cold {
			refs.Cold[i].MTTSF *= 1 + 1e-6
		}
		for _, req := range refs.Incremental {
			for i := range req {
				req[i].Ctotal *= 1 + 1e-6
			}
		}
		dir := t.TempDir()
		rep, _, err := run(workloads[name](7, refs, dir), time.Second, false, dir, name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: perturbed reference went unnoticed (correct=%v failed=%d)", name, rep.Correct, rep.Failed)
		}
	}
}

// TestPerturbedServingReferenceFails checks that the serving check
// compares every field of a response, not only MTTSF and Ĉtotal: a hot-set
// reference whose failure split is off by far less than any printed digit
// but more than the rounding tolerance must fail the run.
func TestPerturbedServingReferenceFails(t *testing.T) {
	w := newServe(7, false, t.TempDir()).(*serveWorkload)
	defer w.close()
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range w.hotRes {
		r.ProbC1 *= 1 + 1e-9
	}
	out, err := w.measure(time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Errorf("perturbed hot-set reference went unnoticed (%d attempted)", out.attempted)
	}
}

// TestSolverCountersCoverOnlyTimedPoints checks that the solver counters
// behind ctmc.solve_iters and its neighbours count the timed evaluations
// and nothing else (not the reference backend's cross-check re-solves):
// evaluating the same points again through the program's own entry points
// takes exactly as many solves and iterations.
func TestSolverCountersCoverOnlyTimedPoints(t *testing.T) {
	refs := testRefs(t)
	for _, name := range []string{"design_sweep_cold", "tids_sweep_incremental"} {
		w := workloads[name](7, refs, t.TempDir())
		tr := newTracer()
		if err := w.setup(tr); err != nil {
			t.Fatal(err)
		}
		out, err := w.measure(time.Second, tr)
		if err != nil {
			t.Fatal(err)
		}
		if out.solver.solves == 0 {
			t.Fatalf("%s: no solves counted", name)
		}
		before := ctmcCounters()
		if name == "design_sweep_cold" {
			_, err = engine.New(engine.Options{}).EvalBatch(out.evaluated)
		} else {
			// One fresh engine per request, as the workload does.
			for i := 0; i < len(out.evaluated) && err == nil; i += len(incrementalShapes) * familyPoints {
				req := out.evaluated[i : i+len(incrementalShapes)*familyPoints]
				_, err = engine.New(engine.Options{}).EvalBatchIncremental(context.Background(), req)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		again := ctmcCounters().minus(before)
		if out.solver.solves != again.solves || out.solver.iters != again.iters {
			t.Errorf("%s: window counted %d solves, %d iterations; the same points take %d, %d",
				name, out.solver.solves, out.solver.iters, again.solves, again.iters)
		}
	}
}
