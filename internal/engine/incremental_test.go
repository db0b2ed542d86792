package engine

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestEvalBatchIncrementalMatchesEvalBatch pins the incremental batch
// entry's equivalence contract: a batch whose N changes mid-batch (two
// structural families, interleaved) and several rate-only points per family
// returns exactly the results of the parallel full-prepare path, in order.
// Grouping by structural key means no session ever meets a structural
// delta, so the walk costs no structural re-prepare.
func TestEvalBatchIncrementalMatchesEvalBatch(t *testing.T) {
	var cfgs []core.Config
	for _, tids := range []float64{5, 60, 120, 480, 1200} {
		for _, n := range []int{10, 12} {
			cfg := testConfig()
			cfg.N = n
			cfg.TIDS = tids
			cfgs = append(cfgs, cfg)
		}
	}
	want, err := New(Options{}).EvalBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	repreps := core.StructuralRepreps()
	got, err := New(Options{}).EvalBatchIncremental(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.StructuralRepreps() - repreps; d != 0 {
		t.Errorf("grouped incremental batch paid %d structural re-prepares, want 0", d)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == nil {
			t.Fatalf("point %d: nil result", i)
		}
		if d := (got[i].MTTSF - want[i].MTTSF) / want[i].MTTSF; d > 1e-10 || d < -1e-10 {
			t.Errorf("point %d: incremental MTTSF %g vs batch %g", i, got[i].MTTSF, want[i].MTTSF)
		}
		if d := (got[i].Ctotal - want[i].Ctotal) / want[i].Ctotal; d > 1e-10 || d < -1e-10 {
			t.Errorf("point %d: incremental Ctotal %g vs batch %g", i, got[i].Ctotal, want[i].Ctotal)
		}
		if got[i].Config.TIDS != cfgs[i].TIDS || got[i].Config.N != cfgs[i].N {
			t.Errorf("point %d: result order broken (got N=%d TIDS=%v)", i, got[i].Config.N, got[i].Config.TIDS)
		}
	}
}

// TestEvalBatchIncrementalCanceled pins cancellation: a pre-canceled
// context evaluates nothing and reports the cancellation per point.
func TestEvalBatchIncrementalCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []core.Config{testConfig()}
	res, err := New(Options{}).EvalBatchIncremental(ctx, cfgs)
	if err == nil {
		t.Fatal("canceled batch returned no error")
	}
	if res[0] != nil {
		t.Fatal("canceled batch returned a result")
	}
}

// TestStatsIncrementalCounters pins the /v1/stats satellite: the engine
// snapshot surfaces the process-global incremental counters, and driving an
// incremental batch moves the patched-solve counter.
func TestStatsIncrementalCounters(t *testing.T) {
	e := New(Options{})
	before := e.Stats()
	var cfgs []core.Config
	for _, tids := range []float64{7, 33, 77, 333} {
		cfg := testConfig()
		cfg.TIDS = tids
		cfgs = append(cfgs, cfg)
	}
	if _, err := e.EvalBatchIncremental(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.PatchedSolves <= before.PatchedSolves {
		t.Errorf("patched-solve counter did not advance (%d -> %d)", before.PatchedSolves, after.PatchedSolves)
	}
}
