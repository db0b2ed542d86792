package main

// Host identity, the linalg calibration kernel, memory, and the comparison
// of two run records.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/linalg"
)

// hostInfo identifies where and on what code a run was made.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
	// SpMVGBps is the calibration kernel's rate: the fused CSR MulVecTo
	// on a fixed matrix (SpMVShape), in computed bytes moved per second.
	// It is recorded to read host drift between runs, not as a metric.
	SpMVGBps  float64 `json:"linalg.spmv_gbps"`
	SpMVShape string  `json:"spmv_shape"`
}

func identify(seed int64) hostInfo {
	gbps, shape := spmvCalibration()
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		SourceHash: sourceHash("."),
		Seed:       seed,
		SpMVGBps:   gbps,
		SpMVShape:  shape,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD without running git; a checkout that is not a git
// repository reports "none" and is identified by its source hash instead.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root, so runs
// of the same code compare as such even outside a git repository.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// spmvCalibration times the fused CSR MulVecTo on a fixed 7-band matrix
// large enough to stream from memory, and returns computed GB/s: per call
// the values and column indices (16 B per nonzero), the row pointers, and
// one read of x and one write of y.
func spmvCalibration() (float64, string) {
	const n, band = 1 << 18, 7
	entries := make([]linalg.Coord, 0, n*band)
	for i := 0; i < n; i++ {
		for k := -band / 2; k <= band/2; k++ {
			j := (i + k*97 + n) % n
			entries = append(entries, linalg.Coord{Row: i, Col: j, Val: 1 / float64(1+k*k)})
		}
	}
	m := linalg.NewCSRFromRows(n, n, entries)
	x, y := linalg.ConstVector(n, 1), linalg.NewVector(n)
	bytesPerCall := float64(16*m.NNZ() + 8*(n+1) + 16*n)
	var rates []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		const calls = 8
		for c := 0; c < calls; c++ {
			m.MulVecTo(y, x)
		}
		rates = append(rates, calls*bytesPerCall/time.Since(t0).Seconds()/1e9)
	}
	return median(rates), fmt.Sprintf("%dx%d CSR, %d nonzeros", n, n, m.NNZ())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// compareRecords prints, metric by metric, run b over run a, beside the
// calibration kernel's drift between the two hosts, and refuses runs made
// at different core counts.
func compareRecords(w io.Writer, pathA, pathB string) error {
	var a, b record
	for _, x := range []struct {
		path string
		rec  *record
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, x.rec); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: nproc/GOMAXPROCS %d/%d vs %d/%d",
			a.Host.NProc, a.Host.GOMAXPROCS, b.Host.NProc, b.Host.GOMAXPROCS)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %d) with %s (trace %d)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	drift := b.Host.SpMVGBps / a.Host.SpMVGBps
	fmt.Fprintf(w, "host drift (linalg.spmv_gbps b/a): %.3f\n", drift)
	names := make([]string, 0, len(a.Report.Metrics))
	for k := range a.Report.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ma, mb := a.Report.Metrics[k], b.Report.Metrics[k]
		if ma.Value == 0 {
			fmt.Fprintf(w, "%-28s %12.6g -> %12.6g %s\n", k, ma.Value, mb.Value, ma.Unit)
			continue
		}
		fmt.Fprintf(w, "%-28s %12.6g -> %12.6g %-6s ratio %.3f\n", k, ma.Value, mb.Value, ma.Unit, mb.Value/ma.Value)
	}
	return nil
}
