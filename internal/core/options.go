package core

import (
	"context"
	"fmt"
)

// SweepOption configures how a grid driver (SweepTIDS, ExploreDesignSpace,
// TradeoffFrontier) evaluates its points. Options compose left to right;
// the zero set is the plain bounded-batch cold path.
type SweepOption func(*sweepConfig)

// sweepConfig is the resolved option set.
type sweepConfig struct {
	incremental bool
	ctx         context.Context
}

// WithIncremental routes the grid through EvalIncremental: points sharing
// a StructuralKey walk one SweepSession in grid order, so every rate-only
// neighbour after the first is patched and re-solved in place instead of
// re-explored and re-assembled. Structural deltas and hard solve failures
// fall back to the full path (and re-anchor), so results are
// tolerance-identical to a cold sweep.
func WithIncremental() SweepOption {
	return func(o *sweepConfig) { o.incremental = true }
}

// WithContext makes the driver honor ctx: evaluation stops with ctx.Err()
// at the next point boundary after cancellation (an in-flight solve runs
// to completion — solver kernels are not preemptible — but no further
// point starts).
func WithContext(ctx context.Context) SweepOption {
	return func(o *sweepConfig) { o.ctx = ctx }
}

func applySweepOptions(opts []SweepOption) sweepConfig {
	var o sweepConfig
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// ctxErr reports the option context's cancellation state (nil when no
// context was supplied).
func (o sweepConfig) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	if err := o.ctx.Err(); err != nil {
		return fmt.Errorf("core: sweep canceled: %w", err)
	}
	return nil
}

// evalBatch runs one grid through the default evaluator: incrementally
// when asked and the evaluator can hand out prepared models, otherwise as
// one bounded batch, through the evaluator's context-aware entry point
// when the caller supplied a context and the evaluator has one (the
// memoizing engine does).
func (o sweepConfig) evalBatch(cfgs []Config) ([]*Result, error) {
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	ev := DefaultEvaluator()
	if pe, ok := ev.(PreparedEvaluator); ok && o.incremental {
		ctx := o.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		return EvalIncremental(ctx, pe, cfgs)
	}
	if o.ctx != nil {
		if cev, ok := ev.(interface {
			EvalBatchContext(context.Context, []Config) ([]*Result, error)
		}); ok {
			return cev.EvalBatchContext(o.ctx, cfgs)
		}
	}
	return ev.EvalBatch(cfgs)
}
