package main

// The per-layer metrics of the traced run, derived from the spans, the
// traced pipeline's counts, and the program's own process-wide counters.

import "time"

type metricDef struct{ name, unit string }

// perLayerMetrics is every metric the traced run reports. A layer that
// did no work on a workload reports 0 there.
var perLayerMetrics = []metricDef{
	{"spn.explore_ms", "ms"},
	{"spn.states_per_s", "1/s"},
	{"core.build_ms", "ms"},
	{"core.rewards_ms", "ms"},
	{"core.structural_repreps", "count"},
	{"ctmc.assemble_ms", "ms"},
	{"ctmc.solve_ms", "ms"},
	{"ctmc.solve_iters", "count"},
	{"ctmc.anchor_ms", "ms"},
	{"ctmc.patch_ms", "ms"},
	{"ctmc.patched_ratio", "ratio"},
	{"ctmc.refactorizations", "count"},
	{"ctmc.fallbacks", "count"},
	{"linalg.nnz", "count"},
	{"linalg.bytes_per_iter", "B"},
	{"engine.hit_ratio", "ratio"},
	{"engine.lookup_us", "us"},
	{"engine.join_ms", "ms"},
	{"engine.eval_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"service.self_ms", "ms"},
	{"service.peer_self_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.rejected", "count"},
	{"client.retries", "count"},
	{"client.wire_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.remote_ratio", "ratio"},
	{"cluster.hedges", "count"},
	{"persist.load_ms", "ms"},
	{"unaccounted_ms", "ms"},
	{"unaccounted_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// spanMetrics maps span names to the metric of their mean self time (or,
// for whole-call metrics, mean duration) per call.
var spanMetrics = []struct {
	span, metric string
	self         bool
	unit         time.Duration
}{
	{"spn.explore", "spn.explore_ms", true, time.Millisecond},
	{"core.build", "core.build_ms", true, time.Millisecond},
	{"core.rewards", "core.rewards_ms", true, time.Millisecond},
	{"ctmc.assemble", "ctmc.assemble_ms", true, time.Millisecond},
	{"ctmc.solve", "ctmc.solve_ms", true, time.Millisecond},
	{"ctmc.anchor", "ctmc.anchor_ms", true, time.Millisecond},
	{"ctmc.patch", "ctmc.patch_ms", true, time.Millisecond},
	{"engine.lookup", "engine.lookup_us", false, time.Microsecond},
	{"engine.join", "engine.join_ms", false, time.Millisecond},
	{"engine.eval", "engine.eval_ms", false, time.Millisecond},
	{"engine.eval", "engine.self_ms", true, time.Millisecond},
	{"service.handler", "service.self_ms", true, time.Millisecond},
	{"service.peer_handler", "service.peer_self_ms", true, time.Millisecond},
	{"service.queue", "service.queue_ms", false, time.Millisecond},
	{"client.roundtrip", "client.wire_ms", true, time.Millisecond},
	{"cluster.rpc", "cluster.hop_ms", true, time.Millisecond},
}

// rootSpans are the spans of whole user operations; their self time is
// what no layer's span accounts for.
var rootSpans = map[string]bool{"op": true, "client.request": true}

// perLayer combines the traced window's spans, the solver counters over it
// and the workload's own per-layer numbers.
func perLayer(spans []Span, out *outcome) map[string]float64 {
	layers := map[string]float64{}
	for k, v := range out.layers {
		layers[k] = v
	}
	stats := selfTimes(spans)
	for _, m := range spanMetrics {
		st := stats[m.span]
		if st == nil || st.Count == 0 {
			continue
		}
		d := st.Total
		if m.self {
			d = st.Self
		}
		layers[m.metric] = float64(d) / float64(m.unit) / float64(st.Count)
	}
	var rootSelf, rootTotal time.Duration
	var roots int
	for name := range rootSpans {
		if st := stats[name]; st != nil {
			rootSelf += st.Self
			rootTotal += st.Total
			roots += st.Count
		}
	}
	if roots > 0 {
		layers["unaccounted_ms"] = ms(rootSelf) / float64(roots)
		layers["unaccounted_share"] = float64(rootSelf) / float64(rootTotal)
	}
	c := out.solver
	if c.solves > 0 {
		layers["ctmc.solve_iters"] = float64(c.iters) / float64(c.solves)
	}
	if out.points > 0 {
		layers["ctmc.patched_ratio"] = float64(c.patched) / float64(out.points)
	}
	layers["ctmc.refactorizations"] = float64(c.refactor)
	layers["ctmc.fallbacks"] = float64(c.fallbacks)
	layers["core.structural_repreps"] = float64(c.repreps)
	return layers
}

// pipelineLayers reads the traced pipeline's counts. linalg.bytes_per_iter
// is computed, not measured: one ILU(0)-preconditioned BiCGSTAB iteration
// streams the transient generator four times (two products, two
// preconditioner applications; 16 B per nonzero plus 8 B per row pointer)
// and touches about twelve state vectors (8 B per transient state).
func pipelineLayers(p *pipeline, dst map[string]float64) {
	chains := p.explored.Load()
	if chains == 0 {
		return
	}
	var exploreNs int64 = p.exploreNs.Load()
	if exploreNs > 0 {
		dst["spn.states_per_s"] = float64(p.states.Load()) / (float64(exploreNs) / 1e9)
	}
	nnz := float64(p.nnz.Load()) / float64(chains)
	rows := float64(p.states.Load()) / float64(chains)
	trans := float64(p.transient.Load()) / float64(chains)
	dst["linalg.nnz"] = nnz
	dst["linalg.bytes_per_iter"] = 4*(16*nnz+8*(rows+1)) + 12*8*trans
}
