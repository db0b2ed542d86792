package main

// Correctness oracles. The sweeps carry a seeded sample of catalogue
// configurations whose MTTSF and Ĉtotal are stored in reference.json,
// computed through a different solver backend than the default, and
// re-solve a seeded sample of their own points the same way after timing.
// Every output is also checked for sanity. The serving workloads compare
// every response with a direct engine evaluation (serve.go).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
)

// refBackend is the solver backend references are computed with: the SOR
// cascade, a stationary method, against the default ILU(0)-BiCGSTAB.
const refBackend = "sor-cascade"

// refTolerance is the relative agreement required of MTTSF and Ĉtotal.
const refTolerance = 1e-9

// catalogueSeed fixes the catalogue's configurations.
const catalogueSeed = -20090525

type refEntry struct {
	Config core.Config `json:"config"`
	MTTSF  float64     `json:"mttsf"`
	Ctotal float64     `json:"ctotal"`
}

type references struct {
	Backend     string       `json:"backend"`
	Cold        []refEntry   `json:"cold"`
	Incremental [][]refEntry `json:"incremental"` // whole incremental requests
}

func loadReferences(path string) (*references, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var r references
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Cold) == 0 || len(r.Incremental) == 0 {
		return nil, fmt.Errorf("%s: empty catalogue", path)
	}
	return &r, nil
}

// catalogue returns the configurations the references cover.
func catalogue() (cold []core.Config, incremental [][]core.Config) {
	cold = newDistinctStream(newRand(catalogueSeed, streamTimed), 30, 100, nil).take(32)
	r := newRand(catalogueSeed, streamCheck)
	for i := 0; i < 3; i++ {
		incremental = append(incremental, incrementalRequest(r, familyPoints))
	}
	return cold, incremental
}

// referenceValue evaluates cfg cold through refBackend.
func referenceValue(cfg core.Config) (refEntry, error) {
	c := cfg
	c.Solver = refBackend
	res, err := core.Analyze(c)
	if err != nil {
		return refEntry{}, err
	}
	return refEntry{Config: cfg, MTTSF: res.MTTSF, Ctotal: res.Ctotal}, nil
}

func writeReference(path string) error {
	cold, incr := catalogue()
	refs := references{Backend: refBackend}
	eval := func(cfgs []core.Config) ([]refEntry, error) {
		out := make([]refEntry, len(cfgs))
		errs := make([]error, len(cfgs))
		core.ForEachIndexed(len(cfgs), 0, func(i int) { out[i], errs[i] = referenceValue(cfgs[i]) })
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var err error
	if refs.Cold, err = eval(cold); err != nil {
		return err
	}
	for _, req := range incr {
		e, err := eval(req)
		if err != nil {
			return err
		}
		refs.Incremental = append(refs.Incremental, e)
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func relDiff(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

// checkRef compares a result against a stored reference.
func checkRef(got *core.Result, ref refEntry) string {
	if got == nil {
		return "no result for a reference point"
	}
	if d := max(relDiff(got.MTTSF, ref.MTTSF), relDiff(got.Ctotal, ref.Ctotal)); d > refTolerance {
		return fmt.Sprintf("N=%d %v TIDS=%.6g: MTTSF %.17g Ĉtotal %.17g, reference %.17g %.17g (rel %.3g)",
			ref.Config.N, ref.Config.Protocol, ref.Config.TIDS, got.MTTSF, got.Ctotal, ref.MTTSF, ref.Ctotal, d)
	}
	return ""
}

// checkSane is the check every output gets: the result belongs to the
// configuration asked for and its metrics are finite and positive.
func checkSane(cfg core.Config, got *core.Result) string {
	switch {
	case got == nil:
		return "missing result"
	case engine.Fingerprint(got.Config) != engine.Fingerprint(cfg):
		return fmt.Sprintf("result for N=%d TIDS=%g answers a different configuration", cfg.N, cfg.TIDS)
	}
	if err := engine.ValidateResult(got); err != nil {
		return err.Error()
	}
	if !(got.MTTSF > 0) || !(got.Ctotal > 0) || got.States < 1 {
		return fmt.Sprintf("N=%d TIDS=%g: implausible MTTSF %g Ĉtotal %g states %d", cfg.N, cfg.TIDS, got.MTTSF, got.Ctotal, got.States)
	}
	return ""
}
