package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/ctmc"
	"repro/internal/linalg"
	"repro/internal/spn"
)

// structuralRepreps counts incremental-path points that had to fall back
// to a full re-prepare: the delta classifier called the diff structural,
// or the re-rate replay caught a changed enabled-transition set.
var structuralRepreps atomic.Uint64

// StructuralRepreps returns the cumulative number of incremental-path
// fallbacks to a full explore+assemble+factor re-prepare.
func StructuralRepreps() uint64 { return structuralRepreps.Load() }

// ErrStructuralDelta reports that a configuration handed to a
// PreparedDelta differs structurally from its anchor: the caller must
// evaluate it through the full Prepare path (and typically re-anchor a
// fresh PreparedDelta on the result).
var ErrStructuralDelta = errors.New("core: structural config delta; full re-prepare required")

// PreparedDelta is the incremental re-solve seam: anchored on one fully
// prepared configuration, it evaluates rate-only neighbouring
// configurations by re-rating the shared reachability graph, patching the
// cached generator pattern in place, and re-solving — exactly, through
// the session's reused block-triangular factorization, or under the
// frozen ILU(0) preconditioner when the pattern is too cyclic for it —
// skipping exploration, CSR assembly, transpose, and symbolic
// factorization entirely. Not safe for concurrent use, and each
// Prepared it returns aliases the working arrays and the session's voting
// memo: consume it (Analyze, ForwardSensitivities) before the next
// Prepared call patches under it.
type PreparedDelta struct {
	anchor Config
	graph  *spn.Graph // CloneForRerate clone sharing the donor's structure
	pc     *ctmc.PatchedChain
	prevY  linalg.Vector // previous point's sojourn vector (warm start)

	// votes is the voting-probability memo every model this session
	// builds shares while votesKey is unchanged; a T_IDS sweep never
	// changes it, so Eq. 1 is evaluated once per group composition per
	// session instead of once per point. The donor's own memo is never
	// borrowed: the donor may be cached and analyzed concurrently.
	votes    voteMemo
	votesKey voteMemoKey
}

// NewPreparedDelta anchors an incremental session on a fully prepared
// donor. The donor is never mutated and stays valid (and cacheable); the
// session owns private copies of the mutable value arrays.
func NewPreparedDelta(donor *Prepared) (*PreparedDelta, error) {
	g, err := donor.Graph.CloneForRerate(donor.Model.Net)
	if err != nil {
		return nil, err
	}
	pc, err := ctmc.NewPatchedChain(donor.Chain, donor.Graph)
	if err != nil {
		return nil, err
	}
	pd := &PreparedDelta{anchor: donor.Model.Config, graph: g, pc: pc}
	if sol, err := donor.Solution(); err == nil {
		pd.prevY = sol.SojournTimes()
	}
	return pd, nil
}

// Prepared evaluates cfg through the patch+re-solve path, returning a
// Prepared whose solution is already computed. A structural delta — by
// classification or by the re-rate replay's ground-truth check — returns
// an error wrapping ErrStructuralDelta and counts a structural re-prepare;
// the session stays anchored and usable for later rate-only points. Any
// other error is a hard solve failure: fall back to the full path.
func (pd *PreparedDelta) Prepared(cfg Config) (*Prepared, error) {
	if ClassifyDelta(pd.anchor, cfg) == DeltaStructural {
		structuralRepreps.Add(1)
		return nil, fmt.Errorf("%w (anchor %s, point %s)", ErrStructuralDelta,
			StructuralKey(pd.anchor), StructuralKey(cfg))
	}
	if key := voteMemoKeyOf(cfg); pd.votes == nil || key != pd.votesKey {
		pd.votes, pd.votesKey = make(voteMemo), key
	}
	model, err := buildModel(cfg, pd.votes)
	if err != nil {
		return nil, err
	}
	// Swap the rebuilt net's rate closures under the shared graph and
	// replay the enabling scan — the ground-truth structural check.
	pd.graph.Net = model.Net
	if err := pd.graph.Rerate(); err != nil {
		structuralRepreps.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrStructuralDelta, err)
	}
	if err := pd.pc.PatchRates(pd.graph); err != nil {
		structuralRepreps.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrStructuralDelta, err)
	}
	sol, err := pd.pc.Solve(pd.graph.Initial, pd.prevY)
	if err != nil {
		return nil, err
	}
	pd.prevY = sol.SojournTimes()
	pd.anchor = cfg

	p := &Prepared{Model: model, Graph: pd.graph, Chain: pd.pc.Chain()}
	p.solveOnce.Do(func() { p.sol = sol })
	return p, nil
}

// SweepSession walks the points of one structural family through a single
// PreparedDelta chain over a PreparedEvaluator: the first miss pays a full
// prepare and anchors the session, every later rate-only miss patches and
// re-solves in place, and a structural delta or hard patched-solve failure
// falls back to the full path and re-anchors. Cache hits cost nothing and
// do not advance the chain. It is the one incremental sweep loop: the
// incremental grid drivers, the engine's incremental batch entry and its
// adaptive frontier all walk it. Not safe for concurrent use.
type SweepSession struct {
	pe PreparedEvaluator
	pd *PreparedDelta
}

// NewSweepSession returns an unanchored session evaluating through pe.
func NewSweepSession(pe PreparedEvaluator) *SweepSession {
	return &SweepSession{pe: pe}
}

// Eval evaluates one point through the session, with pe's
// EvalWithContext cancellation semantics.
func (s *SweepSession) Eval(ctx context.Context, cfg Config) (*Result, error) {
	return s.pe.EvalWithContext(ctx, cfg, func() (*Prepared, error) {
		if s.pd != nil {
			if p, err := s.pd.Prepared(cfg); err == nil {
				return p, nil
			}
			s.pd = nil
		}
		p, err := s.pe.Prepared(cfg)
		if err != nil {
			return nil, err
		}
		if npd, err := NewPreparedDelta(p); err == nil {
			s.pd = npd
		}
		return p, nil
	})
}

// EvalIncremental evaluates a batch through SweepSessions: configurations
// are grouped by StructuralKey (groups keep their discovery order, points
// keep batch order within a group), and each group is walked through one
// session on the calling goroutine — the patch chain is inherently
// sequential, and the point is to trade batch parallelism for the (larger)
// algorithmic saving when the batch is a dense rate-only family. Batches
// spanning many structural keys are better served by a plain EvalBatch.
// ctx is checked before each point; per-point errors are joined and order
// is preserved.
func EvalIncremental(ctx context.Context, pe PreparedEvaluator, cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))

	order := make([]string, 0, 4)
	groups := make(map[string][]int, 4)
	for i, cfg := range cfgs {
		key := StructuralKey(cfg)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}

	for _, key := range order {
		sess := NewSweepSession(pe)
		for _, i := range groups[key] {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			res, err := sess.Eval(ctx, cfgs[i])
			if err != nil {
				errs[i] = fmt.Errorf("config %d: %w", i, err)
				continue
			}
			results[i] = res
		}
	}
	return results, errors.Join(errs...)
}
