package main

// Seeded input generators. Every workload derives its configurations from
// --seed alone; the program under test only ever sees the generated
// core.Config values.

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/shapes"
)

// Independent sub-streams of one seed, so that (for example) the warm-up
// set can never draw a configuration the timed stream will draw.
const (
	streamTimed    = 1
	streamWarmup   = 2
	streamHot      = 3
	streamMiss     = 4
	streamSchedule = 5
	streamCheck    = 6
)

func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream*7_919))
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// randomConfig draws one design point: N in [nLo, nHi], either protocol,
// M voters, attacker and detection shape, and a log-uniform TIDS in
// [5, 1200] s. Everything else is the paper's Section 5 environment.
func randomConfig(r *rand.Rand, nLo, nHi int) core.Config {
	cfg := core.DefaultConfig()
	cfg.N = nLo + r.Intn(nHi-nLo+1)
	if r.Intn(2) == 1 {
		cfg.Protocol = core.ProtocolClusterHead
	}
	cfg.M = 3 + 2*r.Intn(4) // 3, 5, 7 or 9
	kinds := shapes.Kinds()
	cfg.Attacker = kinds[r.Intn(len(kinds))]
	cfg.Detection = kinds[r.Intn(len(kinds))]
	cfg.TIDS = logUniform(r, 5, 1200)
	return cfg
}

// warmupSet draws n configurations whose N steps evenly over [nLo, nHi]
// (so they are pairwise distinct for n <= nHi-nLo+1) and whose protocol
// alternates, so that the warm-up costs about the same for every seed; the
// other parameters come from r.
func warmupSet(r *rand.Rand, n, nLo, nHi int) []core.Config {
	out := make([]core.Config, n)
	for i := range out {
		c := randomConfig(r, nLo, nHi)
		c.N, c.Protocol = nLo+i*(nHi-nLo)/(n-1), core.Protocol(i%2)
		out[i] = c
	}
	return out
}

// distinctStream hands out pairwise-distinct configurations (by engine
// fingerprint), also distinct from everything in exclude.
type distinctStream struct {
	r        *rand.Rand
	nLo, nHi int
	seen     map[string]bool
}

func newDistinctStream(r *rand.Rand, nLo, nHi int, exclude map[string]bool) *distinctStream {
	seen := make(map[string]bool, len(exclude))
	for k := range exclude {
		seen[k] = true
	}
	return &distinctStream{r: r, nLo: nLo, nHi: nHi, seen: seen}
}

func (s *distinctStream) next() core.Config {
	for {
		cfg := randomConfig(s.r, s.nLo, s.nHi)
		key := engine.Fingerprint(cfg)
		if !s.seen[key] {
			s.seen[key] = true
			return cfg
		}
	}
}

func (s *distinctStream) take(n int) []core.Config {
	out := make([]core.Config, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func fingerprints(cfgs ...[]core.Config) map[string]bool {
	m := make(map[string]bool)
	for _, list := range cfgs {
		for _, c := range list {
			m[engine.Fingerprint(c)] = true
		}
	}
	return m
}

// familyShape is the structural half of a TIDS-sweep family: the fields
// core.StructuralKey digests. Rates (M, shapes, the TIDS grid) are drawn
// per family from the seed.
type familyShape struct {
	N        int
	Protocol core.Protocol
}

// incrementalShapes are the structurally distinct families every
// incremental request sweeps, one session each: the paper's N = 100 group
// under both IDS protocols.
var incrementalShapes = []familyShape{
	{N: 100, Protocol: core.ProtocolVoting},
	{N: 100, Protocol: core.ProtocolClusterHead},
}

// familyPoints is the dense TIDS grid size of one family.
const familyPoints = 24

// family draws one rate-only family for shape: fixed M, attacker and
// detection shape, and a log-spaced TIDS grid over [5, 1200] s whose
// phase is jittered by the seed so no two families share a point.
func family(r *rand.Rand, shape familyShape, points int) []core.Config {
	base := core.DefaultConfig()
	base.N = shape.N
	base.Protocol = shape.Protocol
	base.M = 3 + 2*r.Intn(4)
	kinds := shapes.Kinds()
	base.Attacker = kinds[r.Intn(len(kinds))]
	base.Detection = kinds[r.Intn(len(kinds))]
	lo, hi := math.Log(5.0), math.Log(1200.0)
	step := (hi - lo) / float64(points)
	phase := r.Float64()
	out := make([]core.Config, points)
	for i := range out {
		c := base
		c.TIDS = math.Exp(lo + (float64(i)+phase)*step)
		out[i] = c
	}
	return out
}

// incrementalRequest is one analyst sweep: one family per structural shape.
func incrementalRequest(r *rand.Rand, points int) []core.Config {
	var out []core.Config
	for _, sh := range incrementalShapes {
		out = append(out, family(r, sh, points)...)
	}
	return out
}

// zipf picks hot-set ranks with a heavy head, as repeated remote queries
// for the same popular design points do.
type zipf struct{ z *rand.Zipf }

func newZipf(r *rand.Rand, n int) zipf {
	return zipf{rand.NewZipf(r, 1.1, 1, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }
