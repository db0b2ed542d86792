package main

// The remote users' workloads: a closed loop of nproc clients against the
// in-process evaluation service (serve_mixed), or against the coordinator
// of an in-process 3-node cluster (cluster_mixed). Each client sends its
// next request as soon as the last one is answered. Requests mix POST
// /v1/eval and POST /v1/batch; their points are Zipf hits on a hot set,
// warmed from a persist snapshot in set-up, plus a fixed seeded share of
// never-seen configurations.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/service"
)

const (
	hotSetSize = 256
	// missBlock and missesPerBlock fix the share of never-seen points:
	// exactly missesPerBlock of every missBlock consecutive points.
	missBlock      = 100
	missesPerBlock = 3
	batchShare     = 0.3 // share of requests that are /v1/batch (the rest /v1/eval)
	batchPoints    = 8
	clusterNodes   = 3
	// coordCacheSize keeps the coordinator's result cache too small to
	// answer for the ring, so points route to their owners.
	coordCacheSize = 2
	httpWarmup     = 64
	// missCheck is how many never-seen points a run re-evaluates directly.
	missCheck = 256
	// tailWindows is how many windows p99_ms is read over.
	tailWindows = 8
)

type serveWorkload struct {
	seed      int64
	clustered bool
	dir       string

	warm   []core.Config
	hot    []core.Config
	hotRes []*core.Result // direct evaluation of each hot point
	nodes  []*srvNode
	client *service.Client
	att    *attribution // non-nil in a traced set-up
	loadMs []float64    // persist warm-start time per node, last set-up
}

type srvNode struct {
	id      string
	eng     *engine.Engine
	node    *cluster.Node
	svc     *service.Server
	ts      *httptest.Server
	handler atomic.Pointer[http.Handler]
}

func newServe(seed int64, clustered bool, dir string) workload {
	return &serveWorkload{seed: seed, clustered: clustered, dir: dir}
}

func (w *serveWorkload) close() {
	for _, n := range w.nodes {
		if n.node != nil {
			n.node.Stop()
		}
		n.ts.Close()
	}
	w.nodes = nil
}

func (w *serveWorkload) setup(tr *tracer) error {
	w.close()
	w.att = nil
	if tr != nil {
		w.att = newAttribution(tr)
	}
	// Warm-up set: its own stream, on a throw-away engine, so the runtime
	// settles without the timed engine seeing any timed point.
	w.warm = warmupSet(newRand(w.seed, streamWarmup), 24, 20, 50)
	if _, err := engine.New(engine.Options{}).EvalBatch(w.warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	n := 1
	if w.clustered {
		n = clusterNodes
	}
	members := make([]cluster.Member, n)
	for i := range n {
		sn := &srvNode{id: fmt.Sprintf("node-%d", i)}
		sn.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			(*sn.handler.Load()).ServeHTTP(rw, r)
		}))
		var down http.Handler = http.NotFoundHandler()
		sn.handler.Store(&down)
		members[i] = cluster.Member{ID: sn.id, URL: sn.ts.URL}
		w.nodes = append(w.nodes, sn)
	}
	for i, sn := range w.nodes {
		opts := engine.Options{}
		if w.clustered && i == 0 {
			opts.CacheSize = coordCacheSize
		}
		sn.eng = engine.New(opts)
		if w.clustered {
			node, err := cluster.NewNode(cluster.Options{
				SelfID:      sn.id,
				Members:     members,
				Replication: 2,
				Engine:      sn.eng,
				HTTPClient:  &http.Client{Transport: w.att.peerTransport(sn.id, newTransport(0))},
			})
			if err != nil {
				return err
			}
			sn.node = node
		}
	}

	// The hot set, evaluated directly: these results are both the
	// snapshot the servers warm from and the reference for every hit.
	w.hot = w.pointStream(streamHot, fingerprints(w.warm)).take(hotSetSize)
	scratch := engine.New(engine.Options{})
	res, err := scratch.EvalBatch(w.hot)
	if err != nil {
		return fmt.Errorf("hot set: %w", err)
	}
	w.hotRes = res
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	snap := filepath.Join(w.dir, fmt.Sprintf("hot-%d.snapshot", w.seed))
	defer os.Remove(snap)
	if err := persist.SaveEngine(scratch, snap); err != nil {
		return err
	}
	w.loadMs = w.loadMs[:0]
	for _, sn := range w.nodes {
		t0 := time.Now()
		if _, err := persist.WarmStart(sn.eng, snap); err != nil {
			return fmt.Errorf("warm start %s: %w", sn.id, err)
		}
		w.loadMs = append(w.loadMs, ms(time.Since(t0)))
		var backend service.Backend = sn.eng
		if w.att != nil {
			backend = w.att.backend(sn.id, sn.eng)
		}
		sn.svc = service.New(service.Options{Backend: backend, Cluster: sn.node})
		var h http.Handler = sn.svc
		if w.att != nil {
			h = w.att.handler(sn.id, sn.svc)
		}
		sn.handler.Store(&h)
		if sn.node != nil {
			sn.node.Start()
		}
	}
	hc := &http.Client{Transport: w.att.clientTransport(newTransport(runtime.NumCPU()))}
	w.client = service.NewResilientClient(w.nodes[0].ts.URL, hc, service.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond})

	// Exercise the HTTP path with the warm-up set (already disjoint from
	// every timed point) so connections and codecs are warm.
	for i := 0; i < httpWarmup; i++ {
		if _, err := w.client.Analyze(context.Background(), w.warm[i%len(w.warm)]); err != nil {
			return fmt.Errorf("HTTP warm-up: %w", err)
		}
	}
	return nil
}

// pointStream draws distinct configurations whose N (20-50) and protocol
// cycle through seeded permutations of the N × protocol grid, so every seed
// asks for the same mix of model sizes and only the other parameters
// differ. On the cluster only keys the coordinator does not replicate are
// kept, so every point routes to its owners.
type pointStream struct {
	w     *serveWorkload
	r     *rand.Rand
	seen  map[string]bool
	cells []int
}

func (w *serveWorkload) pointStream(stream int64, exclude map[string]bool) *pointStream {
	seen := make(map[string]bool, len(exclude))
	for k := range exclude {
		seen[k] = true
	}
	return &pointStream{w: w, r: newRand(w.seed, stream), seen: seen}
}

func (s *pointStream) next() core.Config {
	const nLo, nHi = 20, 50
	for {
		if len(s.cells) == 0 {
			s.cells = s.r.Perm(2 * (nHi - nLo + 1))
		}
		c := randomConfig(s.r, nLo, nHi)
		c.N, c.Protocol = nLo+s.cells[0]/2, core.Protocol(s.cells[0]%2)
		key := engine.Fingerprint(c)
		coord := s.w.nodes[0]
		if s.seen[key] || (s.w.clustered && coord.node.HasReplica(key, coord.id)) {
			continue
		}
		s.seen[key] = true
		s.cells = s.cells[1:]
		return c
	}
}

func (s *pointStream) take(n int) []core.Config {
	out := make([]core.Config, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func newTransport(conns int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	if conns > 0 {
		t.MaxConnsPerHost = conns
		t.MaxIdleConnsPerHost = conns
	}
	return t
}

// request is one user request.
type request struct {
	cfgs  []core.Config
	batch bool
	// want is the direct evaluation of each hit, nil for a never-seen point.
	want []*core.Result

	start, end time.Time
	res        []*core.Result
	err        error
}

// requestGen draws the requests of one measurement in a fixed seeded
// order, whichever client asks: the batch share is drawn per request, and
// exactly missesPerBlock of every missBlock consecutive points are
// never-seen, so misses arrive at a steady rate beside the hits.
type requestGen struct {
	mu    sync.Mutex
	r     *rand.Rand
	z     zipf
	w     *serveWorkload
	miss  *pointStream
	block []bool
	n     int
}

func (w *serveWorkload) requests() *requestGen {
	r := newRand(w.seed, streamSchedule)
	return &requestGen{r: r, z: newZipf(r, len(w.hot)), w: w,
		miss: w.pointStream(streamMiss, fingerprints(w.warm, w.hot))}
}

// next returns the next request and its index in the draw order.
func (g *requestGen) next() (*request, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	q := &request{batch: g.r.Float64() < batchShare}
	k := 1
	if q.batch {
		k = batchPoints
	}
	for range k {
		if len(g.block) == 0 {
			g.block = make([]bool, missBlock)
			for _, i := range g.r.Perm(missBlock)[:missesPerBlock] {
				g.block[i] = true
			}
		}
		if g.block[0] {
			q.cfgs = append(q.cfgs, g.miss.next())
			q.want = append(q.want, nil)
		} else {
			i := g.z.next()
			q.cfgs = append(q.cfgs, g.w.hot[i])
			q.want = append(q.want, g.w.hotRes[i])
		}
		g.block = g.block[1:]
	}
	g.n++
	return q, g.n - 1
}

func (w *serveWorkload) measure(d time.Duration, tr *tracer) (*outcome, error) {
	gen := w.requests()
	before, solverBefore := w.counters(), ctmcCounters()
	var mu sync.Mutex
	var done []*request // in completion order
	var wg sync.WaitGroup
	start := time.Now()
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				q, i := gen.next()
				w.send(q, fmt.Sprintf("pb-%d-%d", w.seed, i))
				mu.Lock()
				done = append(done, q)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out := &outcome{tailWindows: tailWindows, layers: map[string]float64{}}
	out.solver, out.peakRSS = ctmcCounters().minus(solverBefore), peakRSSMB()
	w.layerCounters(before, w.counters(), out)
	for _, q := range done {
		out.lat = append(out.lat, q.end.Sub(q.start))
		out.points += len(q.cfgs)
		out.window = max(out.window, q.end.Sub(start))
	}
	if w.att != nil {
		pipelineLayers(w.att.pipe, out.layers)
	}
	w.verify(done, out)
	return out, nil
}

func (w *serveWorkload) send(q *request, tid string) {
	ctx := obs.WithTraceID(context.Background(), tid)
	sp := w.att.request(tid, q.cfgs)
	q.start = time.Now()
	if q.batch {
		q.res, q.err = w.client.EvalBatch(ctx, q.cfgs)
	} else {
		var res *core.Result
		res, q.err = w.client.Analyze(ctx, q.cfgs[0])
		q.res = []*core.Result{res}
	}
	q.end = time.Now()
	w.att.done(sp, tid, q.cfgs)
}

// verify checks every response: each hit against the hot set's direct
// evaluation, each never-seen point for sanity, and a seeded sample of
// missCheck never-seen points against a fresh engine's direct evaluation.
// (Re-solving every miss would take about as long as the measurement.)
func (w *serveWorkload) verify(reqs []*request, out *outcome) {
	var missCfgs []core.Config
	for _, q := range reqs {
		for i, c := range q.cfgs {
			if q.want[i] == nil {
				missCfgs = append(missCfgs, c)
			}
		}
	}
	r := newRand(w.seed, streamCheck)
	r.Shuffle(len(missCfgs), func(i, j int) { missCfgs[i], missCfgs[j] = missCfgs[j], missCfgs[i] })
	sample := missCfgs[:min(missCheck, len(missCfgs))]
	direct := make(map[string]*core.Result, len(sample))
	if len(sample) > 0 {
		res, err := engine.New(engine.Options{}).EvalBatch(sample)
		if err != nil {
			out.wrong = append(out.wrong, "direct evaluation of never-seen points: "+err.Error())
		}
		for i, r := range res {
			if r != nil {
				direct[engine.Fingerprint(sample[i])] = r
			}
		}
	}
	for _, q := range reqs {
		out.attempted++
		msg := ""
		if q.err != nil {
			msg = q.err.Error()
		}
		for i, c := range q.cfgs {
			if msg != "" {
				break
			}
			if i >= len(q.res) || q.res[i] == nil {
				msg = "missing result"
				break
			}
			want := q.want[i]
			if want == nil {
				if want = direct[engine.Fingerprint(c)]; want == nil {
					msg = checkSane(c, q.res[i]) // a miss outside the sample
					continue
				}
			}
			if d := sameResult(q.res[i], want); d != "" {
				msg = fmt.Sprintf("response for N=%d TIDS=%g differs from a direct engine evaluation: %s", c.N, c.TIDS, d)
			}
		}
		if msg != "" {
			out.failed++
			out.wrong = append(out.wrong, msg)
		}
	}
}

// serveCounters are the program-side counters read around the window.
type serveCounters struct {
	hits, misses, rejected, retries, local, remote, hedges uint64
}

func (w *serveWorkload) counters() serveCounters {
	var c serveCounters
	for _, n := range w.nodes {
		st := n.eng.Stats()
		c.hits += st.Hits
		c.misses += st.Misses
		c.rejected += n.svc.Stats().Rejected
		if n.node != nil {
			cs := n.node.Status()
			c.hedges += cs.Hedges
			if n == w.nodes[0] {
				c.local, c.remote = cs.RoutedLocal, cs.RoutedRemote
			}
		}
	}
	c.retries = w.client.RetryStats().Retries
	return c
}

func (w *serveWorkload) layerCounters(a, b serveCounters, out *outcome) {
	lookups := (b.hits - a.hits) + (b.misses - a.misses)
	if lookups > 0 {
		out.layers["engine.hit_ratio"] = float64(b.hits-a.hits) / float64(lookups)
	}
	out.layers["service.rejected"] = float64(b.rejected - a.rejected)
	out.layers["client.retries"] = float64(b.retries - a.retries)
	if routed := (b.local - a.local) + (b.remote - a.remote); routed > 0 {
		out.layers["cluster.remote_ratio"] = float64(b.remote-a.remote) / float64(routed)
	}
	out.layers["cluster.hedges"] = float64(b.hedges - a.hedges)
	out.layers["persist.load_ms"] = median(w.loadMs)
}

// sameResult compares a served result with a direct evaluation. MTTSF,
// Ĉtotal, the state counts and the configuration must be identical; the
// other fields may differ by rounding, because the program sums the
// absorption probabilities in map order, which varies from run to run.
func sameResult(got, want *core.Result) string {
	switch {
	case got.MTTSF != want.MTTSF || got.Ctotal != want.Ctotal:
		return fmt.Sprintf("MTTSF %.17g Ĉtotal %.17g, direct %.17g %.17g", got.MTTSF, got.Ctotal, want.MTTSF, want.Ctotal)
	case got.States != want.States || got.Transient != want.Transient:
		return "state counts differ"
	case !reflect.DeepEqual(got.Config, want.Config):
		return "configuration differs"
	}
	if d := sameFields(reflect.ValueOf(*got), reflect.ValueOf(*want)); d != "" {
		return "Result" + d
	}
	return ""
}

// roundingTolerance bounds the relative difference allowed in fields that
// are sums taken in varying order.
const roundingTolerance = 1e-12

// sameFields compares two values field by field: floats to within
// roundingTolerance, everything else exactly. It returns "" when they
// agree, else the path to the first difference and the two values.
func sameFields(a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			if d := sameFields(a.Field(i), b.Field(i)); d != "" {
				return "." + a.Type().Field(i).Name + d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return ": length differs"
		}
		for i := range a.Len() {
			if d := sameFields(a.Index(i), b.Index(i)); d != "" {
				return fmt.Sprintf("[%d]%s", i, d)
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return ": length differs"
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("[%v]: missing", k)
			}
			if d := sameFields(a.MapIndex(k), bv); d != "" {
				return fmt.Sprintf("[%v]%s", k, d)
			}
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return ": nil differs"
			}
			return ""
		}
		return sameFields(a.Elem(), b.Elem())
	case reflect.Float32, reflect.Float64:
		if x, y := a.Float(), b.Float(); x != y && !(x != x && y != y) && relDiff(x, y) > roundingTolerance {
			return fmt.Sprintf(": %v vs %v", x, y)
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf(": %q vs %q", a.String(), b.String())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf(": %v vs %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf(": %d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf(": %d vs %d", a.Uint(), b.Uint())
		}
	default:
		return fmt.Sprintf(": cannot compare %s", a.Kind())
	}
	return ""
}
