package ctmc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/obs"
)

// TestArmedSolveAllocsMatchDisarmed pins the price of armed telemetry on
// the solve hot path: timing a sojourn solve and recording its iteration
// count must not allocate, so a paper-model solve costs exactly as many
// allocations armed as disarmed and observing a solve never perturbs it.
func TestArmedSolveAllocsMatchDisarmed(t *testing.T) {
	defer obs.SetArmed(obs.Armed())
	cfg := core.DefaultConfig()
	cfg.N = 30
	m, err := core.BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Explore()
	if err != nil {
		t.Fatal(err)
	}
	chain := ctmc.FromGraph(g)
	allocs := func(armed bool) float64 {
		obs.SetArmed(armed)
		return testing.AllocsPerRun(20, func() {
			if _, err := chain.Solve(g.Initial); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := allocs(false)
	on := allocs(true)
	if on != off {
		t.Errorf("armed solve costs %v allocs vs %v disarmed: instrumentation must not allocate", on, off)
	}
	t.Logf("N=%d, %d states: %v allocs per solve armed, %v disarmed", cfg.N, g.NumStates(), on, off)
}
