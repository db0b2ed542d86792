package main

// The analyst's workloads: a cold design sweep and the paper's incremental
// TIDS sweep. Both are closed loops: one analyst submits a what-if request
// (a batch of configurations) and waits for it before sending the next.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/engine"
)

const (
	// coldBatch is the size of one cold what-if request.
	coldBatch = 8
	// coldRefSample is how many catalogue entries a cold run carries (an
	// incremental run carries one catalogue request); crossSample is how
	// many of its own points a run re-solves through the reference backend
	// after timing.
	coldRefSample = 4
	crossSample   = 3
)

// sweepChecks accumulates the per-point checks of a sweep.
type sweepChecks struct {
	attempted, failed int
	wrong             []string
	timed             []core.Config // non-catalogue points, for the cross-check
	results           []*core.Result
}

func (c *sweepChecks) add(cfg core.Config, res *core.Result, ref *refEntry) {
	c.attempted++
	msg := checkSane(cfg, res)
	if msg == "" && ref != nil {
		msg = checkRef(res, *ref)
	}
	if msg != "" {
		c.failed++
		c.wrong = append(c.wrong, msg)
		return
	}
	if ref == nil {
		c.timed = append(c.timed, cfg)
		c.results = append(c.results, res)
	}
}

// crossCheck re-solves a seeded sample of the run's own points cold
// through the reference backend and compares.
func (c *sweepChecks) crossCheck(r *rand.Rand) {
	for k := 0; k < crossSample && len(c.timed) > 0; k++ {
		i := r.Intn(len(c.timed))
		ref, err := referenceValue(c.timed[i])
		msg := ""
		if err != nil {
			msg = fmt.Sprintf("reference re-solve failed: %v", err)
		} else {
			msg = checkRef(c.results[i], ref)
		}
		if msg != "" {
			c.failed++
			c.wrong = append(c.wrong, "cross-check "+msg)
		}
	}
}

func (c *sweepChecks) fill(o *outcome) {
	o.attempted, o.failed, o.wrong = c.attempted, c.failed, c.wrong
}

// coldSweep evaluates seeded, pairwise-distinct design points through one
// fresh engine's EvalBatch: nothing is cached, nothing is incremental.
type coldSweep struct {
	seed    int64
	refs    *references
	warmFPs map[string]bool
	eng     *engine.Engine
}

func newColdSweep(seed int64, refs *references, _ string) workload {
	return &coldSweep{seed: seed, refs: refs}
}

// coldWarmup is the size of the disjoint warm-up set.
const coldWarmup = 32

func (w *coldSweep) setup(*tracer) error {
	warm := warmupSet(newRand(w.seed, streamWarmup), coldWarmup, 30, 100)
	if _, err := engine.New(engine.Options{}).EvalBatch(warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.warmFPs = fingerprints(warm)
	w.eng = engine.New(engine.Options{})
	return nil
}

func (w *coldSweep) close() {}

func (w *coldSweep) measure(d time.Duration, tr *tracer) (*outcome, error) {
	exclude := fingerprints(refConfigs(w.refs.Cold))
	for k := range w.warmFPs {
		exclude[k] = true
	}
	stream := newDistinctStream(newRand(w.seed, streamTimed), 30, 100, exclude)
	pick := newRand(w.seed, streamCheck)
	sample := pick.Perm(len(w.refs.Cold))[:coldRefSample]
	pipe := &pipeline{t: tr}
	var checks sweepChecks
	out := &outcome{}
	before := ctmcCounters()
	start := time.Now()
	for op := 0; time.Since(start) < d; op++ {
		batch := stream.take(coldBatch)
		refAt := map[int]*refEntry{}
		if op < len(sample) {
			i := pick.Intn(coldBatch)
			ref := w.refs.Cold[sample[op]]
			batch[i] = ref.Config
			refAt[i] = &ref
		}
		t0 := time.Now()
		var res []*core.Result
		var err error
		if tr == nil {
			res, err = w.eng.EvalBatch(batch)
		} else {
			trace := fmt.Sprintf("op-%d", op)
			sp := tr.start("op", trace, 0)
			res, err = core.RunBatch(batch, w.eng.WorkerBound(), func(cfg core.Config) (*core.Result, error) {
				return pipe.eval(context.Background(), w.eng, trace, sp.id(), cfg, func(parent int64) (*core.Prepared, error) {
					return pipe.full(trace, parent, cfg)
				})
			})
			sp.end()
		}
		lat := time.Since(t0)
		out.lat = append(out.lat, lat)
		if err != nil {
			checks.wrong = append(checks.wrong, err.Error())
		}
		for i, cfg := range batch {
			checks.add(cfg, res[i], refAt[i])
		}
		out.points += len(batch)
		out.evaluated = append(out.evaluated, batch...)
	}
	out.window = time.Since(start)
	out.solver, out.peakRSS = ctmcCounters().minus(before), peakRSSMB()
	checks.crossCheck(pick)
	checks.fill(out)
	out.layers = map[string]float64{}
	pipelineLayers(pipe, out.layers)
	return out, nil
}

func refConfigs(es []refEntry) []core.Config {
	out := make([]core.Config, len(es))
	for i, e := range es {
		out[i] = e.Config
	}
	return out
}

// incrementalSweep runs the paper's central study: each request is one
// dense log-spaced TIDS family per structural shape, through
// EvalBatchIncremental on a fresh engine.
type incrementalSweep struct {
	seed int64
	refs *references
}

func newIncrementalSweep(seed int64, refs *references, _ string) workload {
	return &incrementalSweep{seed: seed, refs: refs}
}

func (w *incrementalSweep) setup(*tracer) error {
	// The warm-up request is the same for every seed, because its rate
	// parameters set its solve cost and so setup_s. Each timed request
	// runs on a fresh engine, so nothing carries over.
	warm := incrementalRequest(newRand(catalogueSeed, streamWarmup), 12)
	_, err := engine.New(engine.Options{}).EvalBatchIncremental(context.Background(), warm)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (w *incrementalSweep) close() {}

func (w *incrementalSweep) measure(d time.Duration, tr *tracer) (*outcome, error) {
	r := newRand(w.seed, streamTimed)
	pick := newRand(w.seed, streamCheck)
	refReq := w.refs.Incremental[pick.Intn(len(w.refs.Incremental))]
	pipe := &pipeline{t: tr}
	var checks sweepChecks
	out := &outcome{}
	before := ctmcCounters()
	start := time.Now()
	for op := 0; time.Since(start) < d; op++ {
		var cfgs []core.Config
		var refs []refEntry
		if op == 0 { // first, so that even the shortest run checks it
			refs = refReq
			cfgs = refConfigs(refs)
		} else {
			cfgs = incrementalRequest(r, familyPoints)
		}
		eng := engine.New(engine.Options{})
		t0 := time.Now()
		var res []*core.Result
		var err error
		if tr == nil {
			res, err = eng.EvalBatchIncremental(context.Background(), cfgs)
		} else {
			res, err = tracedIncremental(pipe, eng, fmt.Sprintf("op-%d", op), cfgs)
		}
		out.lat = append(out.lat, time.Since(t0))
		if err != nil {
			checks.wrong = append(checks.wrong, err.Error())
		}
		for i, cfg := range cfgs {
			var ref *refEntry
			if refs != nil {
				ref = &refs[i]
			}
			checks.add(cfg, res[i], ref)
		}
		out.points += len(cfgs)
		out.evaluated = append(out.evaluated, cfgs...)
	}
	out.window = time.Since(start)
	out.solver, out.peakRSS = ctmcCounters().minus(before), peakRSSMB()
	checks.crossCheck(pick)
	checks.fill(out)
	out.layers = map[string]float64{}
	pipelineLayers(pipe, out.layers)
	return out, nil
}

// tracedIncremental is EvalBatchIncremental spelled out with the traced
// pipeline: points grouped by structural key in first-seen order, each
// group walked through one delta session.
func tracedIncremental(pipe *pipeline, eng *engine.Engine, trace string, cfgs []core.Config) ([]*core.Result, error) {
	sp := pipe.t.start("op", trace, 0)
	defer sp.end()
	var order []string
	groups := map[string][]int{}
	for i, cfg := range cfgs {
		key := core.StructuralKey(cfg)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	res := make([]*core.Result, len(cfgs))
	for _, key := range order {
		sess := &deltaSession{p: pipe, eng: eng, trace: trace}
		for _, i := range groups[key] {
			r, err := sess.eval(sp.id(), cfgs[i])
			if err != nil {
				return res, fmt.Errorf("config %d: %w", i, err)
			}
			res[i] = r
		}
	}
	return res, nil
}

// counters are the program's process-wide solver counters.
type counters struct {
	solves, iters, patched, refactor, fallbacks, repreps uint64
}

func (c counters) minus(o counters) counters {
	return counters{
		solves:    c.solves - o.solves,
		iters:     c.iters - o.iters,
		patched:   c.patched - o.patched,
		refactor:  c.refactor - o.refactor,
		fallbacks: c.fallbacks - o.fallbacks,
		repreps:   c.repreps - o.repreps,
	}
}

func ctmcCounters() counters {
	return counters{
		solves:    ctmc.SolveCount(),
		iters:     ctmc.SolveIterations(),
		patched:   ctmc.PatchedSolves(),
		refactor:  ctmc.Refactorizations(),
		fallbacks: ctmc.Fallbacks(),
		repreps:   core.StructuralRepreps(),
	}
}
