package engine

import (
	"context"

	"repro/internal/core"
)

// EvalBatchIncremental evaluates a batch through the incremental re-solve
// path (core.EvalIncremental over this engine): points are grouped by
// core.StructuralKey and each group walks one core.SweepSession, so the
// first miss of a family pays a full prepare and every later rate-only
// miss patches and re-solves in place. Cache hits cost nothing, exactly as
// in EvalBatch, and every fresh Result is recorded in the Result cache.
// Per-point errors are joined, order is preserved, and the context is
// checked before each point like EvalBatchContext.
func (e *Engine) EvalBatchIncremental(ctx context.Context, cfgs []core.Config) ([]*core.Result, error) {
	return core.EvalIncremental(ctx, e, cfgs)
}
