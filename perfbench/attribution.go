package main

// Traced serving: wrappers the benchmark puts around the program's public
// seams — the http.Handler of each server, the service.Backend it is
// handed, and the http.RoundTripper of the client and of the cluster's
// peer client. Spans are tied together by the X-Repro-Trace-Id the client
// sets. A nil *attribution wraps nothing.

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
)

// spanHeader carries a peer RPC's span ID to the owner's handler wrapper,
// which uses it as the parent of the owner's span. The program ignores it.
const spanHeader = "X-Perfbench-Span"

type attribution struct {
	tr   *tracer
	pipe *pipeline

	mu       sync.Mutex
	byFP     map[string][]string           // fingerprint -> trace ids of requests in flight
	requests map[string]int64              // trace id -> client.request span
	trips    map[string]int64              // trace id -> client.roundtrip span
	active   map[string]map[string][]int64 // node -> trace id -> open handler spans
	queued   map[string]time.Time          // node|trace|fingerprint -> not-joined JoinInflight return
}

func newAttribution(tr *tracer) *attribution {
	return &attribution{
		tr:       tr,
		pipe:     &pipeline{t: tr},
		byFP:     map[string][]string{},
		requests: map[string]int64{},
		trips:    map[string]int64{},
		active:   map[string]map[string][]int64{},
		queued:   map[string]time.Time{},
	}
}

// request opens the client-side span of one request and registers its
// points, so that Cached calls (which carry no context) can be attributed.
func (a *attribution) request(tid string, cfgs []core.Config) *open {
	if a == nil {
		return nil
	}
	sp := a.tr.start("client.request", tid, 0)
	a.mu.Lock()
	a.requests[tid] = sp.id()
	for _, c := range cfgs {
		fp := engine.Fingerprint(c)
		a.byFP[fp] = append(a.byFP[fp], tid)
	}
	a.mu.Unlock()
	return sp
}

func (a *attribution) done(sp *open, tid string, cfgs []core.Config) {
	if a == nil {
		return
	}
	sp.end()
	a.mu.Lock()
	delete(a.requests, tid)
	delete(a.trips, tid)
	for _, c := range cfgs {
		fp := engine.Fingerprint(c)
		ids := a.byFP[fp]
		for i, t := range ids {
			if t == tid {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(a.byFP, fp)
		} else {
			a.byFP[fp] = ids
		}
	}
	a.mu.Unlock()
}

// parentOn returns an open handler span of trace tid on node.
func (a *attribution) parentOn(node, tid string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ids := a.active[node][tid]; len(ids) > 0 {
		return ids[len(ids)-1]
	}
	return 0
}

// traceOfFP attributes a context-free call on node by fingerprint: the
// in-flight request holding that point whose handler is open on node.
func (a *attribution) traceOfFP(node, fp string) (string, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, tid := range a.byFP[fp] {
		if ids := a.active[node][tid]; len(ids) > 0 {
			return tid, ids[len(ids)-1]
		}
	}
	return "", 0
}

// handler wraps a server: one span per traced request, parented on the
// client's round trip or, for a peer call, on the calling RPC's span.
func (a *attribution) handler(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid := r.Header.Get(obs.TraceHeader)
		if tid == "" {
			h.ServeHTTP(w, r) // heartbeats and replication fills
			return
		}
		name, parent := "service.handler", int64(0)
		if strings.HasPrefix(r.URL.Path, "/v1/peer/") {
			name = "service.peer_handler"
			parent, _ = strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		} else {
			a.mu.Lock()
			parent = a.trips[tid]
			a.mu.Unlock()
		}
		sp := a.tr.start(name, tid, parent)
		a.mu.Lock()
		if a.active[node] == nil {
			a.active[node] = map[string][]int64{}
		}
		a.active[node][tid] = append(a.active[node][tid], sp.id())
		a.mu.Unlock()
		h.ServeHTTP(w, r)
		sp.end()
		a.mu.Lock()
		ids := a.active[node][tid]
		for i, id := range ids {
			if id == sp.id() {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(a.active[node], tid)
		} else {
			a.active[node][tid] = ids
		}
		a.mu.Unlock()
	})
}

// clientTransport times the client's HTTP exchanges (request write to
// response body close) as client.roundtrip spans.
func (a *attribution) clientTransport(base http.RoundTripper) http.RoundTripper {
	if a == nil {
		return base
	}
	return &tracedTransport{a: a, base: base, span: func(r *http.Request, tid string) (string, int64) {
		a.mu.Lock()
		defer a.mu.Unlock()
		return "client.roundtrip", a.requests[tid]
	}, after: func(tid string, id int64) {
		a.mu.Lock()
		a.trips[tid] = id
		a.mu.Unlock()
	}}
}

// peerTransport times a node's peer RPCs; the owner's handler span is
// parented on the RPC through spanHeader.
func (a *attribution) peerTransport(node string, base http.RoundTripper) http.RoundTripper {
	if a == nil {
		return base
	}
	return &tracedTransport{a: a, base: base, peer: true, span: func(r *http.Request, tid string) (string, int64) {
		name := "cluster.rpc"
		if strings.HasSuffix(r.URL.Path, "/fill") {
			name = "cluster.fill"
		}
		return name, a.parentOn(node, tid)
	}}
}

type tracedTransport struct {
	a     *attribution
	base  http.RoundTripper
	peer  bool
	span  func(r *http.Request, tid string) (string, int64)
	after func(tid string, id int64)
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tid := r.Header.Get(obs.TraceHeader)
	if tid == "" {
		return t.base.RoundTrip(r)
	}
	name, parent := t.span(r, tid)
	sp := t.a.tr.start(name, tid, parent)
	if t.after != nil {
		t.after(tid, sp.id())
	}
	if t.peer {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(sp.id(), 10))
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	sp   *open
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}

// backend wraps the engine handed to service.New: cache probes, in-flight
// joins, the wait for the solve semaphore, and evaluations become spans
// under the node's handler span for the same trace id. Evaluations run
// the traced pipeline through the engine's cache spine.
func (a *attribution) backend(node string, eng *engine.Engine) service.Backend {
	return &tracedBackend{a: a, node: node, eng: eng}
}

type tracedBackend struct {
	a    *attribution
	node string
	eng  *engine.Engine
}

func (b *tracedBackend) Cached(cfg core.Config) (*core.Result, bool) {
	t0 := time.Now()
	res, ok := b.eng.Cached(cfg)
	t1 := time.Now()
	tid, parent := b.a.traceOfFP(b.node, engine.Fingerprint(cfg))
	b.a.tr.record("engine.lookup", tid, parent, t0, t1)
	return res, ok
}

func (b *tracedBackend) JoinInflight(ctx context.Context, cfg core.Config) (*core.Result, bool, error) {
	tid := obs.TraceID(ctx)
	t0 := time.Now()
	res, joined, err := b.eng.JoinInflight(ctx, cfg)
	t1 := time.Now()
	if joined {
		b.a.tr.record("engine.join", tid, b.a.parentOn(b.node, tid), t0, t1)
	} else {
		b.a.mu.Lock()
		b.a.queued[b.node+"|"+tid+"|"+engine.Fingerprint(cfg)] = t1
		b.a.mu.Unlock()
	}
	return res, joined, err
}

func (b *tracedBackend) EvalContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	now := time.Now()
	tid := obs.TraceID(ctx)
	parent := b.a.parentOn(b.node, tid)
	key := b.node + "|" + tid + "|" + engine.Fingerprint(cfg)
	b.a.mu.Lock()
	from, ok := b.a.queued[key]
	delete(b.a.queued, key)
	b.a.mu.Unlock()
	if ok {
		b.a.tr.record("service.queue", tid, parent, from, now)
	}
	pipe := b.a.pipe
	return pipe.eval(ctx, b.eng, tid, parent, cfg, func(p int64) (*core.Prepared, error) {
		return pipe.full(tid, p, cfg)
	})
}

func (b *tracedBackend) Stats() engine.Stats { return b.eng.Stats() }
func (b *tracedBackend) WorkerBound() int    { return b.eng.WorkerBound() }
