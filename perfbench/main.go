// Command perfbench is the repository's benchmark: four workloads that
// exercise the model pipeline the way its users do (an analyst's cold
// design sweep, the paper's incremental TIDS sweep, and remote clients of
// the evaluation service, single-node and clustered), checked against
// independent references, with end-to-end metrics from an untraced run and
// a per-layer breakdown from a traced one.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload design_sweep_cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the last line of standard output.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// outcome is what one measured phase of a workload produced.
type outcome struct {
	attempted, failed int
	wrong             []string // correctness failures, for the log

	points int             // evaluations completed in the measured window
	window time.Duration   // wall time the points and latencies belong to
	lat    []time.Duration // per operation, in completion order
	// tailWindows > 1 reads p99_ms as a median over that many windows.
	tailWindows int
	// solver is the program's solver counters over the measured window
	// only, before any correctness re-solve.
	solver counters
	// evaluated is every configuration the sweeps timed, in order.
	evaluated []core.Config
	// peakRSS is the resident high-water mark when the timed window
	// ended, before any correctness re-solve.
	peakRSS float64
	layers  map[string]float64
}

// workload is one benchmark workload. setup may be called several times;
// each call replaces the state of the previous one.
type workload interface {
	setup(tr *tracer) error
	measure(d time.Duration, tr *tracer) (*outcome, error)
	close()
}

// workloads builds each workload from the seed, the stored references and
// a scratch directory inside the checkout.
var workloads = map[string]func(seed int64, refs *references, dir string) workload{
	"design_sweep_cold":      newColdSweep,
	"tids_sweep_incremental": newIncrementalSweep,
	"serve_mixed": func(seed int64, _ *references, dir string) workload {
		return newServe(seed, false, dir)
	},
	"cluster_mixed": func(seed int64, _ *references, dir string) workload {
		return newServe(seed, true, dir)
	},
}

// diagnostic workloads run on request but are not in BENCHMARK.json.
// serve_mixed is cluster_mixed without the ring, for isolating the peer
// hop; cluster_mixed already measures every layer serve_mixed does, and on
// a shared 2-core host serve_mixed's p50_ms spread up to 0.26-0.29 over ten
// seeds, against 0.19 at most for cluster_mixed.
var diagnostic = map[string]bool{"serve_mixed": true}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	refPath := flag.String("reference", "perfbench/reference.json", "stored reference values")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for run records and span files")
	writeRef := flag.Bool("write-reference", false, "recompute the stored reference values and exit")
	compare := flag.Bool("compare", false, "compare two run records given as arguments and exit")
	flag.Parse()

	switch {
	case *writeRef:
		if err := writeReference(*refPath); err != nil {
			fatalf("%v", err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two run record files")
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *refPath, *outDir))
	}
	mk := workloads[*name]
	if mk == nil {
		fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	refs, err := loadReferences(*refPath)
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	rep, rec, err := run(mk(*seed, refs, *outDir), time.Duration(*seconds)*time.Second, *trace == 1, *outDir, *name, *seed)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	// Identify the host after the run: the calibration kernel's arrays
	// would otherwise raise the resident high-water mark behind
	// peak_rss_mb, which the run has already read.
	host := identify(*seed)
	fmt.Printf("host %s\n", mustJSON(host))
	rec.Host = host
	rec.Workload, rec.Trace = *name, *trace
	rec.Report = rep
	recPath := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := os.WriteFile(recPath, []byte(mustJSON(rec)+"\n"), 0o644); err != nil {
		fatalf("%v", err)
	}
	printHuman(rep, rec)
	fmt.Println(mustJSON(rep))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload, each in a process of its own so that peak
// RSS and the program's process-wide counters belong to one workload. It
// returns 1 if any run was wrong or failed.
func runAll(seed int64, seconds, trace int, refPath, outDir string) int {
	status := 0
	for _, name := range workloadNames() {
		fmt.Printf("workload %s\n", name)
		cmd := exec.Command(os.Args[0], "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace),
			"--reference", refPath, "--out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// record is the full result of a run, written next to the span file.
type record struct {
	Host     hostInfo          `json:"host"`
	Workload string            `json:"workload"`
	Trace    int               `json:"trace"`
	Report   Report            `json:"report"`
	Notes    map[string]string `json:"notes"`
	Wrong    []string          `json:"wrong,omitempty"`
	// LatencyMS is every operation's latency behind p50_ms and p99_ms, in
	// arrival order (untraced runs).
	LatencyMS []float64 `json:"latency_ms,omitempty"`
}

// run sets the workload up setupRepeats times, measures, and builds the
// report. A traced run is measured in four quarters of d, in the order
// paused, traced, traced, paused: the per-layer metrics come from the
// traced half, and trace.overhead_ratio compares it with the paused
// quarters, which run the same traced code path without recording spans.
func run(w workload, d time.Duration, traced bool, outDir, name string, seed int64) (Report, record, error) {
	defer w.close()
	rec := record{Notes: map[string]string{}}
	if !traced {
		var times []float64
		for i := 0; i < setupRepeats; i++ {
			t0 := time.Now()
			if err := w.setup(nil); err != nil {
				return Report{}, rec, fmt.Errorf("setup: %w", err)
			}
			// Collect set-up garbage now, not during the measurement.
			runtime.GC()
			times = append(times, time.Since(t0).Seconds())
		}
		out, err := w.measure(d, nil)
		if err != nil {
			return Report{}, rec, err
		}
		rec.Notes["setup"] = fmt.Sprintf("set-up times %.4g s", times)
		rep := endToEnd(out, median(times), rec.Notes)
		rec.Wrong = out.wrong
		for _, l := range out.lat {
			rec.LatencyMS = append(rec.LatencyMS, ms(l))
		}
		return rep, rec, nil
	}

	tr := newTracer()
	phase := func(paused bool, d time.Duration) (*outcome, error) {
		tr.paused.Store(paused)
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		runtime.GC()
		tr.reset() // set-up spans are not part of the breakdown
		return w.measure(d, tr)
	}
	first, err := phase(true, d/4)
	if err != nil {
		return Report{}, rec, err
	}
	out, err := phase(false, d/2)
	if err != nil {
		return Report{}, rec, err
	}
	spans := tr.snapshot()
	last, err := phase(true, d/4)
	if err != nil {
		return Report{}, rec, err
	}
	spanPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return Report{}, rec, err
	}
	rec.Notes["spans"] = fmt.Sprintf("%d spans in %s", len(spans), spanPath)
	layers := perLayer(spans, out)
	paused := (first.pointsPerS() + last.pointsPerS()) / 2
	if b := out.pointsPerS(); paused > 0 && b > 0 {
		layers["trace.overhead_ratio"] = paused / b
	}
	rep := Report{
		Attempted: first.attempted + out.attempted + last.attempted,
		Failed:    first.failed + out.failed + last.failed,
		Metrics:   map[string]Metric{},
	}
	for _, m := range perLayerMetrics {
		v, ok := layers[m.name]
		if !ok {
			v = 0 // the layer did no work on this workload
		}
		rep.Metrics[m.name] = Metric{Value: v, Unit: m.unit}
	}
	rep.Correct = rep.Failed == 0
	rec.Wrong = append(append(first.wrong, out.wrong...), last.wrong...)
	return rep, rec, nil
}

func (o *outcome) pointsPerS() float64 {
	if o.window <= 0 {
		return 0
	}
	return float64(o.points) / o.window.Seconds()
}

// endToEnd builds the untraced run's report.
func endToEnd(o *outcome, setupS float64, notes map[string]string) Report {
	p50 := percentile(o.lat, 0.5)
	windows := max(o.tailWindows, 1)
	tail, q, beyond := windowedTail(o.lat, windows)
	over := ""
	if windows > 1 {
		over = fmt.Sprintf(", the median over %d consecutive windows of each window's", windows)
	}
	notes["latency"] = fmt.Sprintf("%d operations; p99_ms is%s p%.4g (the highest percentile <= 99 with >= %d samples beyond it)",
		len(o.lat), over, 100*q, beyond)
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	notes["error_ratio"] = fmt.Sprintf("%g (%d failed or wrong of %d attempted)", ratio, o.failed, o.attempted)
	m := map[string]Metric{
		"setup_s":      {setupS, "s"},
		"points_per_s": {o.pointsPerS(), "1/s"},
		"p50_ms":       {ms(p50), "ms"},
		"p99_ms":       {ms(tail), "ms"},
		"peak_rss_mb":  {o.peakRSS, "MB"},
	}
	return Report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

// windowedTail splits lat (in arrival order) into n consecutive windows
// and returns the median of the windows' tail percentiles, so that one
// burst of interference moves one window, not the result.
func windowedTail(lat []time.Duration, n int) (time.Duration, float64, int) {
	size := len(lat) / n
	var tails []float64
	var q float64
	var beyond int
	for i := 0; i < n; i++ {
		win := lat[i*size : (i+1)*size]
		q, beyond = tailQuantile(len(win))
		tails = append(tails, float64(percentile(win, q)))
	}
	return time.Duration(median(tails)), q, beyond
}

// tailQuantile returns the highest quantile, at most 0.99, that leaves at
// least 10 of n samples beyond it (never below the median).
func tailQuantile(n int) (q float64, beyond int) {
	const minBeyond = 10
	q = 0.99
	if n > 0 && float64(n)*(1-q) < minBeyond {
		q = 1 - float64(minBeyond)/float64(n)
	}
	return max(q, 0.5), minBeyond
}

// percentile returns the q-quantile (nearest rank) of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func printHuman(rep Report, rec record) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	keys := make([]string, 0, len(rec.Notes))
	for k := range rec.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("note %s: %s\n", k, rec.Notes[k])
	}
	for _, w := range rec.Wrong {
		fmt.Printf("WRONG %s\n", w)
	}
}

func workloadNames() []string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
