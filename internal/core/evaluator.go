package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Evaluator is the seam between the model layer and the evaluation-engine
// layer: anything that can turn Configs into Results. Package core ships
// Direct (build-and-solve every time, bounded worker pool); package
// internal/engine wraps an Evaluator with memoization and installs itself
// as the process default, so every sweep, frontier, figure, and baseline
// routes through one shared cache.
type Evaluator interface {
	// Eval evaluates one configuration.
	Eval(cfg Config) (*Result, error)
	// EvalBatch evaluates a slice of configurations with bounded
	// parallelism, preserving order. results[i] corresponds to cfgs[i];
	// on error the returned error wraps every failing point's error and
	// results may be partially filled.
	EvalBatch(cfgs []Config) ([]*Result, error)
}

// PreparedEvaluator is the optional extension incremental sweeps need: an
// Evaluator that can hand out the fully built (and possibly cached)
// evaluation state for a configuration and record a Result computed from a
// caller-supplied one, so a SweepSession can patch the previous grid
// point's model into the next. Both Direct and the memoizing engine
// implement it.
type PreparedEvaluator interface {
	Evaluator
	// Prepared returns the built model/graph/chain for cfg, without
	// forcing the solve.
	Prepared(cfg Config) (*Prepared, error)
	// EvalWithContext evaluates cfg, calling prepare for the built (and
	// typically already solved) evaluation state only when no recorded
	// Result exists: the memoizing engine serves repeats straight from
	// its result cache — skipping the rebuild and solve entirely — and
	// records fresh points so later Evals hit. A canceled ctx stops the
	// caller before a fresh evaluation starts. The returned Result is the
	// caller's own copy.
	EvalWithContext(ctx context.Context, cfg Config, prepare func() (*Prepared, error)) (*Result, error)
}

// defaultEvaluator is the Evaluator used by SweepTIDS, ExploreDesignSpace,
// and the other grid drivers in this package.
var defaultEvaluator atomic.Value // of evaluatorBox

type evaluatorBox struct{ ev Evaluator }

func init() { defaultEvaluator.Store(evaluatorBox{Direct{}}) }

// DefaultEvaluator returns the Evaluator grid drivers currently route
// through.
func DefaultEvaluator() Evaluator { return defaultEvaluator.Load().(evaluatorBox).ev }

// SetDefaultEvaluator swaps the process-wide Evaluator and returns the
// previous one. The evaluation engine calls this at init; tests use it to
// pin the direct path.
func SetDefaultEvaluator(ev Evaluator) Evaluator {
	if ev == nil {
		ev = Direct{}
	}
	prev := DefaultEvaluator()
	defaultEvaluator.Store(evaluatorBox{ev})
	return prev
}

// Direct is the memoization-free Evaluator: every Eval builds the SPN,
// explores the graph, and solves the CTMC. EvalBatch runs a bounded worker
// pool — workers, not goroutine-per-point — so a 10k-point grid spawns
// GOMAXPROCS goroutines, not 10k.
type Direct struct {
	// Workers bounds batch parallelism; 0 means GOMAXPROCS.
	Workers int
}

// Eval implements Evaluator.
func (d Direct) Eval(cfg Config) (*Result, error) { return Analyze(cfg) }

// Prepared implements PreparedEvaluator: a fresh build every call.
func (d Direct) Prepared(cfg Config) (*Prepared, error) { return Prepare(cfg) }

// EvalWithContext implements PreparedEvaluator: Direct records nothing,
// so it always prepares and derives the Result from the (memoized) solve.
func (d Direct) EvalWithContext(ctx context.Context, cfg Config, prepare func() (*Prepared, error)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := prepare()
	if err != nil {
		return nil, err
	}
	res, err := p.Analyze()
	if err != nil {
		return nil, err
	}
	r := *res
	r.Config = cfg
	return &r, nil
}

// EvalBatch implements Evaluator.
func (d Direct) EvalBatch(cfgs []Config) ([]*Result, error) {
	return RunBatch(cfgs, d.Workers, d.Eval)
}

// ForEachIndexed runs fn(i) for every i in [0, n) over at most workers
// goroutines (0 means GOMAXPROCS) — the one bounded indexed fan-out every
// batch driver shares (RunBatch, the evaluation service's per-point batch
// dispatch, bench client pools).
func ForEachIndexed(n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunBatch fans eval over cfgs with at most workers concurrent
// evaluations (0 means GOMAXPROCS), preserving order and joining per-point
// errors. It is the shared pool both Direct and the memoizing engine use.
func RunBatch(cfgs []Config, workers int, eval func(Config) (*Result, error)) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	ForEachIndexed(len(cfgs), workers, func(i int) {
		results[i], errs[i] = eval(cfgs[i])
	})
	var joined error
	for i, err := range errs {
		if err != nil {
			pointErr := fmt.Errorf("core: batch point %d (TIDS=%v, m=%d, detection=%v): %w",
				i, cfgs[i].TIDS, cfgs[i].M, cfgs[i].Detection, err)
			if joined == nil {
				joined = pointErr
			} else {
				joined = fmt.Errorf("%w; %w", joined, pointErr)
			}
		}
	}
	if joined != nil {
		return results, joined
	}
	return results, nil
}
