package core

import (
	"testing"
)

// TestClassifyDeltaNone pins the execution-policy axes: diffs in Solver or
// the default-vs-explicit spelling of MaxStates are evaluation-equivalent.
func TestClassifyDeltaNone(t *testing.T) {
	a := DefaultConfig()
	if got := ClassifyDelta(a, a); got != DeltaNone {
		t.Fatalf("identical configs classify as %v", got)
	}
	b := a
	b.Solver = "ilu-bicgstab"
	if got := ClassifyDelta(a, b); got != DeltaNone {
		t.Fatalf("execution-policy diff classifies as %v", got)
	}
	b = a
	b.MaxStates = a.EffectiveMaxStates()
	if got := ClassifyDelta(a, b); got != DeltaNone {
		t.Fatalf("explicit default MaxStates classifies as %v", got)
	}
}

// TestClassifyDeltaRateOnly pins the fast-path fields: parameters feeding
// only rate and cost closures classify as rate-only.
func TestClassifyDeltaRateOnly(t *testing.T) {
	a := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.TIDS = 600 },
		func(c *Config) { c.LambdaC *= 2 },
		func(c *Config) { c.LambdaQ *= 3 },
		func(c *Config) { c.P1 = 0.02 },
		func(c *Config) { c.P2 = 0.005 },
		func(c *Config) { c.M = 7 },
		func(c *Config) { c.PartitionRate *= 1.5 },
		func(c *Config) { c.MergeRate *= 0.5 },
		func(c *Config) { c.BandwidthBps *= 2 },
	}
	for i, mutate := range mutations {
		b := a
		mutate(&b)
		if got := ClassifyDelta(a, b); got != DeltaRateOnly {
			t.Errorf("mutation %d classifies as %v, want rate-only", i, got)
		}
	}
}

// TestClassifyDeltaStructural pins the guard-feeding fields and the
// zero-crossing rules: anything that can change which transitions are
// enabled forces a full re-prepare.
func TestClassifyDeltaStructural(t *testing.T) {
	a := DefaultConfig()
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"N", func(c *Config) { c.N = a.N + 5 }},
		{"MaxGroups", func(c *Config) { c.MaxGroups = 9 }},
		{"ExplicitEviction", func(c *Config) { c.ExplicitEviction = true }},
		{"Protocol", func(c *Config) { c.Protocol = ProtocolClusterHead }},
		{"MaxStates", func(c *Config) { c.MaxStates = 1000 }},
		{"PartitionRate to zero", func(c *Config) { c.PartitionRate = 0 }},
		{"MergeRate to zero", func(c *Config) { c.MergeRate = 0 }},
		{"P1 to boundary", func(c *Config) { c.P1 = 0 }},
		{"P2 to boundary", func(c *Config) { c.P2 = 1 }},
		{"LambdaQ to zero", func(c *Config) { c.LambdaQ = 0 }},
	}
	for _, m := range mutations {
		b := a
		m.mutate(&b)
		if got := ClassifyDelta(a, b); got != DeltaStructural {
			t.Errorf("%s classifies as %v, want structural", m.name, got)
		}
		// The classification is symmetric for zero crossings: leaving the
		// degenerate configuration is as structural as entering it.
		if got := ClassifyDelta(b, a); got != DeltaStructural {
			t.Errorf("%s (reversed) classifies as %v, want structural", m.name, got)
		}
	}
}

// TestStructuralKeyGroups pins the grouping contract: rate-only neighbours
// share a key, structurally different configurations do not.
func TestStructuralKeyGroups(t *testing.T) {
	a := DefaultConfig()
	b := a
	b.TIDS = 600
	b.LambdaC *= 2
	if StructuralKey(a) != StructuralKey(b) {
		t.Fatal("rate-only neighbours have different structural keys")
	}
	c := a
	c.N = a.N + 1
	if StructuralKey(a) == StructuralKey(c) {
		t.Fatal("different N shares a structural key")
	}
}
