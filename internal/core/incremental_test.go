package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/shapes"
)

// incrementalTestGrid is the rate-only neighbourhood the patch+re-solve
// property walks: detection-interval moves of every size (tiny nudges and
// order-of-magnitude jumps) plus attacker/churn rate changes.
func incrementalTestGrid(base Config) []Config {
	var out []Config
	for _, tids := range []float64{5, 15, 120, 125, 480, 1200, 30} {
		c := base
		c.TIDS = tids
		out = append(out, c)
	}
	c := base
	c.LambdaC *= 3
	out = append(out, c)
	c = base
	c.PartitionRate *= 2
	c.MergeRate *= 0.5
	out = append(out, c)
	c = base
	c.P1, c.P2 = 0.03, 0.002
	c.M = 7
	out = append(out, c)
	return out
}

// TestPatchedResolveMatchesFullPrepare is the tentpole property: under
// every registered solver backend — and under both solve tiers, the exact
// block-triangular sweep and the frozen-ILU Krylov fallback it shadows —
// evaluating a rate-only neighbourhood through one PreparedDelta session
// (re-rate, in-place generator patch, incremental re-solve) reproduces the
// full re-prepare's dense-LU ground truth at every point to 1e-10.
func TestPatchedResolveMatchesFullPrepare(t *testing.T) {
	for _, disableDirect := range []bool{false, true} {
		tier := "direct"
		if disableDirect {
			tier = "krylov"
		}
		for _, name := range ctmc.SolverBackendNames() {
			base := DefaultConfig()
			base.N = 10
			base.Solver = name
			donor, err := Prepare(base)
			if err != nil {
				t.Fatalf("%s/%s: %v", tier, name, err)
			}
			pd, err := NewPreparedDelta(donor)
			if err != nil {
				t.Fatalf("%s/%s: %v", tier, name, err)
			}
			pd.pc.DisableDirect = disableDirect
			for pi, cfg := range incrementalTestGrid(base) {
				p, err := pd.Prepared(cfg)
				if err != nil {
					t.Fatalf("%s/%s point %d: %v", tier, name, pi, err)
				}
				sol, err := p.Solution()
				if err != nil {
					t.Fatalf("%s/%s point %d: %v", tier, name, pi, err)
				}
				y := sol.SojournTimes()
				full, err := Prepare(cfg)
				if err != nil {
					t.Fatalf("%s/%s point %d: %v", tier, name, pi, err)
				}
				want := denseSojournReference(t, full)
				scale := 1 + want.NormInf()
				for i := range want {
					if d := y[i] - want[i]; d > 1e-10*scale || d < -1e-10*scale {
						t.Fatalf("%s/%s point %d: patched sojourn[%d] = %g, dense LU %g (diff %g)",
							tier, name, pi, i, y[i], want[i], d)
					}
				}
			}
		}
	}
}

// TestPatchedResolveForcedRefactor pins the preconditioner-drift budget of
// the Krylov tier (forced via DisableDirect — the exact tier never consults
// the frozen factors): a 240x detection-rate jump (TIDS 5 -> 1200) drifts
// the patched generator far past the frozen ILU(0) factors' budget, forcing
// a refactorization — and the refactored solve still lands on the dense-LU
// answer.
func TestPatchedResolveForcedRefactor(t *testing.T) {
	base := DefaultConfig()
	base.N = 10
	base.TIDS = 5
	base.Solver = ctmc.BackendILUBiCGSTAB
	donor, err := Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := NewPreparedDelta(donor)
	if err != nil {
		t.Fatal(err)
	}
	pd.pc.DisableDirect = true
	before := ctmc.Refactorizations()
	far := base
	far.TIDS = 1200
	p, err := pd.Prepared(far)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctmc.Refactorizations(); got == before {
		t.Fatalf("240x rate jump did not force a refactorization (count still %d)", got)
	}
	sol, err := p.Solution()
	if err != nil {
		t.Fatal(err)
	}
	y := sol.SojournTimes()
	full, err := Prepare(far)
	if err != nil {
		t.Fatal(err)
	}
	want := denseSojournReference(t, full)
	scale := 1 + want.NormInf()
	for i := range want {
		if d := y[i] - want[i]; d > 1e-10*scale || d < -1e-10*scale {
			t.Fatalf("post-refactor sojourn[%d] = %g, dense LU %g", i, y[i], want[i])
		}
	}
}

// TestPreparedDeltaStructuralFallback pins the fallback contract: a
// structural delta (different N; a rate zero-crossing) is refused with
// ErrStructuralDelta and counted, and the session stays anchored and usable
// for later rate-only points.
func TestPreparedDeltaStructuralFallback(t *testing.T) {
	base := DefaultConfig()
	base.N = 10
	donor, err := Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := NewPreparedDelta(donor)
	if err != nil {
		t.Fatal(err)
	}

	before := StructuralRepreps()
	grown := base
	grown.N = 12
	if _, err := pd.Prepared(grown); !errors.Is(err, ErrStructuralDelta) {
		t.Fatalf("N change returned %v, want ErrStructuralDelta", err)
	}
	crossing := base
	crossing.PartitionRate = 0
	crossing.MergeRate = 0
	if _, err := pd.Prepared(crossing); !errors.Is(err, ErrStructuralDelta) {
		t.Fatalf("rate zero-crossing returned %v, want ErrStructuralDelta", err)
	}
	if got := StructuralRepreps(); got != before+2 {
		t.Fatalf("structural re-prepare counter moved %d -> %d, want +2", before, got)
	}

	// The refusals must not have corrupted the session.
	after := base
	after.TIDS = 480
	p, err := pd.Prepared(after)
	if err != nil {
		t.Fatalf("session unusable after structural refusals: %v", err)
	}
	sol, err := p.Solution()
	if err != nil {
		t.Fatal(err)
	}
	full, err := Prepare(after)
	if err != nil {
		t.Fatal(err)
	}
	want := denseSojournReference(t, full)
	y := sol.SojournTimes()
	scale := 1 + want.NormInf()
	for i := range want {
		if d := y[i] - want[i]; d > 1e-10*scale || d < -1e-10*scale {
			t.Fatalf("post-refusal sojourn[%d] = %g, dense LU %g", i, y[i], want[i])
		}
	}
}

// TestIncrementalSweepMatchesCold drives the one incremental sweep loop,
// SweepSession, through each of its core callers on a batch whose N
// changes mid-batch (10 -> 12 -> 10), against cold Direct.EvalBatch to
// 1e-10:
//   - the session walked directly, which must refuse and re-anchor at each
//     structural boundary (two structural re-prepares);
//   - EvalIncremental, the body of engine.EvalBatchIncremental, which groups
//     by StructuralKey so no session sees a boundary (zero re-prepares);
//   - SweepTIDS(WithIncremental) and ExploreDesignSpace(WithIncremental) on
//     a Direct default evaluator, one TIDS family per N;
//
// and checks that a context canceled mid-batch stops it at a point
// boundary.
func TestIncrementalSweepMatchesCold(t *testing.T) {
	prev := SetDefaultEvaluator(Direct{})
	defer SetDefaultEvaluator(prev)
	base := DefaultConfig()
	base.N = 10
	grid := []float64{5, 15, 30, 60, 120, 240, 480, 600, 1200}
	var batch []Config
	for i, tids := range grid {
		c := base
		c.TIDS = tids
		if i >= 3 && i < 6 {
			c.N = 12
		}
		batch = append(batch, c)
	}
	cold, err := Direct{}.EvalBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	coldAt := func(cfg Config) *Result {
		for i, c := range batch {
			if c.N == cfg.N && c.TIDS == cfg.TIDS && c.M == cfg.M && c.Detection == cfg.Detection {
				return cold[i]
			}
		}
		res, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	agree := func(caller string, cfg Config, got *Result) {
		t.Helper()
		if got == nil {
			t.Fatalf("%s: N=%d TIDS=%v: nil result", caller, cfg.N, cfg.TIDS)
		}
		want := coldAt(cfg)
		if d := (got.MTTSF - want.MTTSF) / want.MTTSF; d > 1e-10 || d < -1e-10 {
			t.Errorf("%s: N=%d TIDS=%v: incremental MTTSF %g vs cold %g", caller, cfg.N, cfg.TIDS, got.MTTSF, want.MTTSF)
		}
		if d := (got.Ctotal - want.Ctotal) / want.Ctotal; d > 1e-10 || d < -1e-10 {
			t.Errorf("%s: N=%d TIDS=%v: incremental Ctotal %g vs cold %g", caller, cfg.N, cfg.TIDS, got.Ctotal, want.Ctotal)
		}
	}
	repreps := func(caller string, want uint64, run func()) {
		t.Helper()
		before := StructuralRepreps()
		run()
		if got := StructuralRepreps() - before; got != want {
			t.Errorf("%s: %d structural re-prepares, want %d", caller, got, want)
		}
	}

	repreps("session", 2, func() {
		sess := NewSweepSession(Direct{})
		for _, cfg := range batch {
			res, err := sess.Eval(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			agree("session", cfg, res)
		}
	})
	repreps("EvalIncremental", 0, func() {
		res, err := EvalIncremental(context.Background(), Direct{}, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range batch {
			agree("EvalIncremental", cfg, res[i])
		}
	})
	repreps("SweepTIDS", 0, func() {
		for _, n := range []int{10, 12} {
			cfg := base
			cfg.N = n
			points, err := SweepTIDS(cfg, grid, WithIncremental())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range points {
				c := cfg
				c.TIDS = p.TIDS
				agree("SweepTIDS", c, p.Result)
			}
		}
	})
	space := DesignSpace{Ms: []int{3, 7}, TIDSGrid: grid[:4], Detections: []shapes.Kind{shapes.Linear, shapes.Logarithmic}}
	repreps("ExploreDesignSpace", 0, func() {
		for _, n := range []int{10, 12} {
			cfg := base
			cfg.N = n
			points, err := ExploreDesignSpace(cfg, space, WithIncremental())
			if err != nil {
				t.Fatal(err)
			}
			if len(points) != space.Size() {
				t.Fatalf("ExploreDesignSpace returned %d points, want %d", len(points), space.Size())
			}
			for _, p := range points {
				c := cfg
				c.M, c.TIDS, c.Detection = p.M, p.TIDS, p.Detection
				agree("ExploreDesignSpace", c, &Result{MTTSF: p.MTTSF, Ctotal: p.Ctotal})
			}
		}
	})

	// Cancellation lands on a point boundary: the evaluator cancels the
	// context as its third point completes, so exactly three points are
	// evaluated and every later one reports the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := &cancelAfter{left: 3, cancel: cancel}
	res, err := EvalIncremental(ctx, ev, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", err)
	}
	if ev.evals != 3 {
		t.Fatalf("canceled batch evaluated %d points, want 3", ev.evals)
	}
	for i, r := range res {
		if (r != nil) != (i < 3) {
			t.Errorf("point %d: result present = %v after cancellation at point 3", i, r != nil)
		}
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	ev = &cancelAfter{left: 3, cancel: cancel}
	SetDefaultEvaluator(ev)
	if _, err := SweepTIDS(base, grid, WithIncremental(), WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled SweepTIDS returned %v, want context.Canceled", err)
	}
	if ev.evals != 3 {
		t.Fatalf("canceled SweepTIDS evaluated %d points, want 3", ev.evals)
	}
}

// TestSessionVoteMemoReuse pins the session-scoped voting memo: a
// SweepSession walk that mixes T_IDS steps with rate-only changes of M,
// P1, P2 and the detection and attacker shapes matches a cold Analyze at
// every point to 1e-10, and the session replaces its memo exactly when
// (Protocol, M, P1, P2) changes — a stale memo would silently reuse the
// previous voting probabilities. Both protocols are walked, and so is
// GradientOptimalTIDS, the other PreparedDelta walker.
func TestSessionVoteMemoReuse(t *testing.T) {
	agree := func(caller string, cfg Config, got *Result) {
		t.Helper()
		want, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := (got.MTTSF - want.MTTSF) / want.MTTSF; math.Abs(d) > 1e-10 {
			t.Errorf("%s: incremental MTTSF %g vs cold %g", caller, got.MTTSF, want.MTTSF)
		}
		if d := (got.Ctotal - want.Ctotal) / want.Ctotal; math.Abs(d) > 1e-10 {
			t.Errorf("%s: incremental Ctotal %g vs cold %g", caller, got.Ctotal, want.Ctotal)
		}
	}
	for _, protocol := range []Protocol{ProtocolVoting, ProtocolClusterHead} {
		base := DefaultConfig()
		base.N = 10
		base.Protocol = protocol
		base.M = 3
		base.TIDS = 60
		var walk []Config
		step := func(edit func(*Config)) {
			c := base
			if len(walk) > 0 {
				c = walk[len(walk)-1]
			}
			edit(&c)
			walk = append(walk, c)
		}
		step(func(c *Config) {})               // anchor: cold prepare
		step(func(c *Config) { c.TIDS = 120 }) // first patched point
		step(func(c *Config) { c.TIDS = 600 })
		step(func(c *Config) { c.M = 7 })
		step(func(c *Config) { c.TIDS = 30 })
		step(func(c *Config) { c.M = 3 })
		step(func(c *Config) { c.P1 = 0.03 })
		step(func(c *Config) { c.TIDS = 1200 })
		step(func(c *Config) { c.P2 = 0.002 })
		step(func(c *Config) { c.Detection = shapes.Logarithmic })
		step(func(c *Config) { c.Attacker = shapes.Polynomial })
		step(func(c *Config) { c.ShapeP = 2; c.TIDS = 15 })

		before := StructuralRepreps()
		sess := NewSweepSession(Direct{})
		var pd *PreparedDelta
		var memo uintptr
		for i, cfg := range walk {
			caller := fmt.Sprintf("%s point %d", protocol, i)
			res, err := sess.Eval(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", caller, err)
			}
			agree(caller, cfg, res)
			if i == 0 {
				pd = sess.pd
				continue
			}
			if sess.pd != pd {
				t.Fatalf("%s: session re-anchored on a rate-only walk", caller)
			}
			if pd.votesKey != voteMemoKeyOf(cfg) {
				t.Errorf("%s: memo keyed %+v, point needs %+v", caller, pd.votesKey, voteMemoKeyOf(cfg))
			}
			got := reflect.ValueOf(pd.votes).Pointer()
			// The anchoring point's model owns a private memo, so the
			// first patched point always starts the session's memo.
			wantFresh := i == 1 || voteMemoKeyOf(cfg) != voteMemoKeyOf(walk[i-1])
			if fresh := got != memo; fresh != wantFresh {
				t.Errorf("%s: memo replaced = %v, want %v", caller, fresh, wantFresh)
			}
			memo = got
		}
		if n := StructuralRepreps() - before; n != 0 {
			t.Errorf("%s: %d structural re-prepares on a rate-only walk", protocol, n)
		}

		grad := base
		grad.M, grad.P1 = 7, 0.03
		opt, err := GradientOptimalTIDS(grad, 5, 1200, 0)
		if err != nil {
			t.Fatal(err)
		}
		grad.TIDS = opt.TIDS
		agree(protocol.String()+" GradientOptimalTIDS", grad, opt.Result)
	}
}

// TestAnalyzeDeterministicAbsorptionSplit pins that two evaluations of
// one configuration return bitwise-identical failure splits: the
// absorption probabilities are accumulated and normalized in state order,
// never in map-iteration order.
func TestAnalyzeDeterministicAbsorptionSplit(t *testing.T) {
	for _, protocol := range []Protocol{ProtocolVoting, ProtocolClusterHead} {
		for _, explicit := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.N = 12
			cfg.Protocol = protocol
			cfg.ExplicitEviction = explicit
			a, err := Analyze(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Analyze(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				name string
				a, b float64
			}{
				{"ProbC1", a.ProbC1, b.ProbC1},
				{"ProbC2", a.ProbC2, b.ProbC2},
				{"ProbDepleted", a.ProbDepleted, b.ProbDepleted},
			} {
				if math.Float64bits(f.a) != math.Float64bits(f.b) {
					t.Errorf("%s explicit=%v: %s %v then %v", protocol, explicit, f.name, f.a, f.b)
				}
			}
		}
	}
}

// BenchmarkSweepSessionPoint measures one patched point of a T_IDS sweep —
// re-rate, generator patch, re-solve and Analyze — on an anchored
// SweepSession, allocations included.
func BenchmarkSweepSessionPoint(b *testing.B) {
	base := DefaultConfig()
	base.N = 30
	sess := NewSweepSession(Direct{})
	if _, err := sess.Eval(context.Background(), base); err != nil {
		b.Fatal(err)
	}
	grid := []float64{30, 60, 120, 240, 480, 960}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		cfg := base
		cfg.TIDS = grid[i%len(grid)]
		if _, err := sess.Eval(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// cancelAfter is a Direct evaluator that cancels its caller's context as
// its left-th evaluation completes.
type cancelAfter struct {
	Direct
	left, evals int
	cancel      func()
}

func (c *cancelAfter) EvalWithContext(ctx context.Context, cfg Config, prepare func() (*Prepared, error)) (*Result, error) {
	res, err := c.Direct.EvalWithContext(ctx, cfg, prepare)
	if err == nil {
		c.evals++
		if c.evals == c.left {
			c.cancel()
		}
	}
	return res, err
}
