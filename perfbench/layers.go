package main

// The traced evaluation pipeline: the same public calls core.Prepare and
// the engine make on a miss, issued one at a time so that each layer gets
// its own span. It is handed to the engine through EvalWithContext, so the
// engine's cache, in-flight dedup and admission still run as they do for
// EvalContext; only the prepare step is spelled out here.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/engine"
	"repro/internal/spn"
)

// pipeline counts the work the traced stages did, for the per-layer
// ratios that spans alone do not give.
type pipeline struct {
	t *tracer

	explored  atomic.Int64 // graphs explored
	states    atomic.Int64 // states across explored graphs
	exploreNs atomic.Int64
	nnz       atomic.Int64 // generator nonzeros across assembled chains
	transient atomic.Int64 // transient states across assembled chains
}

func (p *pipeline) timed(name, trace string, parent int64, fn func() error) error {
	sp := p.t.start(name, trace, parent)
	err := fn()
	sp.end()
	return err
}

// prepare mirrors core.Prepare: build the SPN, explore, assemble.
func (p *pipeline) prepare(trace string, parent int64, cfg core.Config) (*core.Prepared, error) {
	var model *core.Model
	if err := p.timed("core.build", trace, parent, func() (err error) {
		model, err = core.BuildModel(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var graph *spn.Graph
	if err := p.timed("spn.explore", trace, parent, func() (err error) {
		graph, err = model.Explore()
		return err
	}); err != nil {
		return nil, err
	}
	p.exploreNs.Add(int64(time.Since(t0)))
	p.explored.Add(1)
	p.states.Add(int64(graph.NumStates()))
	var chain *ctmc.Chain
	_ = p.timed("ctmc.assemble", trace, parent, func() error {
		chain = ctmc.FromGraph(graph)
		return nil
	})
	if cfg.Solver != "" {
		backend, err := ctmc.SolverBackendByName(cfg.Solver)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		chain.SetSolver(backend)
	}
	p.nnz.Add(int64(chain.Generator().NNZ()))
	p.transient.Add(int64(chain.NumTransient()))
	return &core.Prepared{Model: model, Graph: graph, Chain: chain}, nil
}

// solve runs the memoized sojourn solve, then the reward pass on top of it.
func (p *pipeline) solve(trace string, parent int64, prep *core.Prepared) error {
	if err := p.timed("ctmc.solve", trace, parent, func() error {
		_, err := prep.Solution()
		return err
	}); err != nil {
		return err
	}
	return p.rewards(trace, parent, prep)
}

func (p *pipeline) rewards(trace string, parent int64, prep *core.Prepared) error {
	return p.timed("core.rewards", trace, parent, func() error {
		_, err := prep.Analyze()
		return err
	})
}

// full is the cold miss path: prepare, solve, rewards.
func (p *pipeline) full(trace string, parent int64, cfg core.Config) (*core.Prepared, error) {
	prep, err := p.prepare(trace, parent, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.solve(trace, parent, prep); err != nil {
		return nil, err
	}
	return prep, nil
}

// eval evaluates cfg through eng's cache spine with the traced pipeline as
// the miss path; the span "engine.eval" covers the whole engine call.
func (p *pipeline) eval(ctx context.Context, eng *engine.Engine, trace string, parent int64, cfg core.Config, miss func(parent int64) (*core.Prepared, error)) (*core.Result, error) {
	sp := p.t.start("engine.eval", trace, parent)
	defer sp.end()
	return eng.EvalWithContext(ctx, cfg, func() (*core.Prepared, error) { return miss(sp.id()) })
}

// deltaSession is the traced counterpart of the engine's incremental
// session: the first miss of a structural family pays a full prepare and
// anchors a core.PreparedDelta; later rate-only misses patch and re-solve.
type deltaSession struct {
	p     *pipeline
	eng   *engine.Engine
	trace string
	pd    *core.PreparedDelta
}

func (s *deltaSession) eval(parent int64, cfg core.Config) (*core.Result, error) {
	return s.p.eval(context.Background(), s.eng, s.trace, parent, cfg, func(parent int64) (*core.Prepared, error) {
		if s.pd != nil {
			var prep *core.Prepared
			err := s.p.timed("ctmc.patch", s.trace, parent, func() (err error) {
				prep, err = s.pd.Prepared(cfg)
				return err
			})
			if err == nil {
				return prep, s.p.rewards(s.trace, parent, prep)
			}
			s.pd = nil
		}
		prep, err := s.p.prepare(s.trace, parent, cfg)
		if err != nil {
			return nil, err
		}
		// NewPreparedDelta runs the anchor's solve itself (through
		// Prepared.Solution), so solve first to give it its own span.
		if err := s.p.solve(s.trace, parent, prep); err != nil {
			return nil, err
		}
		_ = s.p.timed("ctmc.anchor", s.trace, parent, func() error {
			pd, err := core.NewPreparedDelta(prep)
			if err == nil {
				s.pd = pd
			}
			return nil
		})
		return prep, nil
	})
}
