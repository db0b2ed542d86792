package main

// The traced run's span recorder. Spans are taken only in the benchmark's
// own code, around calls into the program's public functions; the program
// itself is never instrumented. Spans are kept in memory and written out
// when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); Trace groups the spans of one user
// operation and equals the X-Repro-Trace-Id on the serving paths.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans; a nil *tracer records nothing. A paused tracer
// records nothing either, but the workload still takes the traced code
// path, so comparing the two states isolates the cost of recording.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	paused atomic.Bool
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span in progress.
type open struct {
	t *tracer
	s Span
}

// start opens a span; the returned value's ID is usable as a parent at once.
func (t *tracer) start(name, trace string, parent int64) *open {
	if t == nil || t.paused.Load() {
		return nil
	}
	return &open{t: t, s: Span{
		ID: t.nextID.Add(1), Parent: parent, Trace: trace, Name: name,
		Start: int64(time.Since(t.epoch)),
	}}
}

func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// record adds a finished span with explicit times (for intervals measured
// outside a call, such as a wait between two calls).
func (t *tracer) record(name, trace string, parent int64, from, to time.Time) {
	if t == nil || t.paused.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		ID: t.nextID.Add(1), Parent: parent, Trace: trace, Name: name,
		Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed self time
}

// selfTimes computes, per span name, the count, total and self time. A
// span's self time is its duration minus the part of its interval that its
// child spans cover (the union, so children running in parallel are not
// subtracted twice).
func selfTimes(spans []Span) map[string]*layerStat {
	children := make(map[int64][]Span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of s's interval the union of kids covers.
func covered(s Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	first := true
	for _, v := range ivs {
		if first || v.a > curB {
			if !first {
				sum += curB - curA
			}
			curA, curB, first = v.a, v.b, false
			continue
		}
		curB = max(curB, v.b)
	}
	if !first {
		sum += curB - curA
	}
	return time.Duration(sum)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
