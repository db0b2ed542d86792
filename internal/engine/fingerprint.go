package engine

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
)

// Fingerprint returns a canonical cache key for a configuration: two
// Configs that evaluate to bit-identical Results map to the same key even
// when they differ syntactically. Canonicalization covers the two
// derived/ignored axes of core.Config:
//
//   - MaxStates: 0 and the explicit default bound are the same exploration,
//   - Cost: a nil Cost and an explicit *cost.Params equal to the patched
//     defaults are the same cost model (both fingerprint through
//     Config.EffectiveCost).
//
// Config.Solver is deliberately omitted: it is an execution policy. Every
// solver backend converges to the same 1e-12 relative residual, so
// configurations differing only in the backend evaluate to identical
// Results (to solver tolerance) and must share cache entries (pinned by
// TestFingerprintIgnoresSolver).
//
// Floats are encoded with exact binary formatting, so no two distinct
// parameterizations collide.
func Fingerprint(cfg core.Config) string {
	var b strings.Builder
	b.Grow(256)
	f := func(v float64) {
		b.WriteString(strconv.FormatFloat(v, 'b', -1, 64))
		b.WriteByte('|')
	}
	i := func(v int) {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte('|')
	}
	bo := func(v bool) {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
		b.WriteByte('|')
	}

	// Model parameters (every field of core.Config in declaration order;
	// TestFingerprintCoversConfig pins the field count so a new field
	// cannot be forgotten here silently).
	i(int(cfg.Protocol))
	i(cfg.N)
	i(int(cfg.Attacker))
	i(int(cfg.Detection))
	f(cfg.LambdaC)
	f(cfg.TIDS)
	f(cfg.ShapeP)
	i(cfg.M)
	f(cfg.P1)
	f(cfg.P2)
	f(cfg.LambdaQ)
	f(cfg.JoinRate)
	f(cfg.LeaveRate)
	f(cfg.BandwidthBps)
	i(cfg.GDHElementBits)
	f(cfg.PartitionRate)
	f(cfg.MergeRate)
	i(cfg.MaxGroups)
	f(cfg.MeanHops)
	f(cfg.MeanDegree)
	bo(cfg.ExplicitEviction)
	i(cfg.EffectiveMaxStates())

	// Effective cost parameters (canonical whether Cost was nil or given).
	fingerprintCost(&b, cfg.EffectiveCost(), f, i)
	return b.String()
}

func fingerprintCost(b *strings.Builder, p cost.Params, f func(float64), i func(int)) {
	f(p.PacketBits)
	f(p.StatusBits)
	f(p.StatusRate)
	f(p.VoteBits)
	f(p.BeaconBits)
	f(p.BeaconRate)
	i(p.GDHElementBits)
	f(p.MeanHops)
	f(p.MeanDegree)
	f(p.LambdaQ)
	f(p.JoinRate)
	f(p.LeaveRate)
	i(p.M)
}
