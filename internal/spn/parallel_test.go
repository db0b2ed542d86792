package spn

import (
	"fmt"
	"sync"
	"testing"
)

// tokenRing builds a bounded net with pure (concurrency-safe) closures: cap
// tokens circulate over `places` places, one transition per ordered pair of
// adjacent places plus a consuming sink, giving a state space that spans
// several BFS levels.
func tokenRing(places, cap int) (*Net, Marking) {
	n := New()
	for i := 0; i < places; i++ {
		n.AddPlace(fmt.Sprintf("p%d", i))
	}
	for i := 0; i < places; i++ {
		from, to := i, (i+1)%places
		rate := 0.5 + float64(i)
		n.MustAddTransition(&Transition{
			Name:    fmt.Sprintf("t%d", i),
			Inputs:  []Arc{{Place: from, Weight: 1}},
			Outputs: []Arc{{Place: to, Weight: 1}},
			Rate: func(m Marking) float64 {
				return rate * float64(m[from])
			},
		})
	}
	// A consuming transition makes some states absorbing-reachable and
	// keeps the space bounded below the full multinomial.
	n.MustAddTransition(&Transition{
		Name:   "sink",
		Inputs: []Arc{{Place: 0, Weight: 2}},
		Rate: func(m Marking) float64 {
			return 0.25 * float64(m[0])
		},
	})
	m0 := make(Marking, places)
	m0[0] = cap
	return n, m0
}

// graphsIdentical asserts g's states and edges are identical to want's.
func graphsIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumStates() != want.NumStates() {
		t.Fatalf("state count %d, want %d", got.NumStates(), want.NumStates())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("edge count %d, want %d", got.NumEdges(), want.NumEdges())
	}
	if got.Initial != want.Initial {
		t.Fatalf("initial %d, want %d", got.Initial, want.Initial)
	}
	for i := range want.States {
		if !markingEqual(want.States[i], got.States[i]) {
			t.Fatalf("state %d: %v, want %v", i, got.States[i], want.States[i])
		}
		if len(want.Edges[i]) != len(got.Edges[i]) {
			t.Fatalf("state %d: %d edges, want %d", i, len(got.Edges[i]), len(want.Edges[i]))
		}
		for j, e := range want.Edges[i] {
			if got.Edges[i][j] != e {
				t.Fatalf("state %d edge %d: %+v, want %+v", i, j, got.Edges[i][j], e)
			}
		}
	}
}

// TestExploreParallelDeterministic pins that Explore only reads its Net:
// P goroutines exploring one shared net concurrently each produce output
// identical to a single sequential BFS, for every goroutine count.
func TestExploreParallelDeterministic(t *testing.T) {
	net, m0 := tokenRing(5, 6)
	seq, err := net.Explore(m0, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumStates() < 100 {
		t.Fatalf("toy net too small: %d states", seq.NumStates())
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			graphs := make([]*Graph, p)
			errs := make([]error, p)
			var wg sync.WaitGroup
			for w := 0; w < p; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					graphs[w], errs[w] = net.Explore(m0, ExploreOpts{})
				}(w)
			}
			wg.Wait()
			for w, got := range graphs {
				if errs[w] != nil {
					t.Fatalf("worker %d: %v", w, errs[w])
				}
				graphsIdentical(t, seq, got)
				// The interned lookup table must be built consistently too.
				for i, m := range seq.States {
					if idx, ok := got.StateIndex(m); !ok || idx != i {
						t.Fatalf("worker %d: StateIndex(%v) = %d,%v want %d,true", w, m, idx, ok, i)
					}
				}
			}
		})
	}
}
