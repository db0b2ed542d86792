package service

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func TestLatencyEWMAFirstObservationReplaces(t *testing.T) {
	var l latencyEWMA
	if got := l.seconds(); got != 0 {
		t.Fatalf("fresh EWMA = %v, want 0", got)
	}
	l.observe(2 * time.Second)
	if got := l.seconds(); got != 2 {
		t.Fatalf("first observation = %v, want 2 (no blending with the zero state)", got)
	}
	l.observe(4 * time.Second)
	want := (1-ewmaAlpha)*2.0 + ewmaAlpha*4.0
	if got := l.seconds(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("second observation = %v, want %v", got, want)
	}
}

// TestRetryAfterDerivedFromLatency pins the hint arithmetic: no signal
// keeps the legacy 1s; with signal it is ceil(latency x queue / width),
// clamped to [1, 60].
func TestRetryAfterDerivedFromLatency(t *testing.T) {
	s := New(Options{Backend: engine.New(engine.Options{})})
	if got := s.retryAfterSecs(); got != "1" {
		t.Fatalf("Retry-After before any solve = %q, want \"1\"", got)
	}

	width := float64(cap(s.evalSem))
	s.solveLatency.observe(time.Duration(3*width) * time.Second)
	// No pending solves: one retried solve at 3*width seconds across
	// `width` workers drains in 3 seconds.
	if got := s.retryAfterSecs(); got != "3" {
		t.Fatalf("Retry-After at 3*width-second latency = %q, want \"3\"", got)
	}

	// A backlog scales the hint: (pending+1)/width times the latency. A
	// 3-second estimate with pending+1 = 2*width gives 6 at any width,
	// clear of the 60-second clamp however many cores the host has.
	s.solveLatency.bits.Store(math.Float64bits(3))
	s.pendingSolves.Store(int64(2*width - 1))
	if got := s.retryAfterSecs(); got != "6" {
		t.Fatalf("Retry-After with a 2*width-deep queue = %q, want \"6\"", got)
	}
	s.pendingSolves.Store(0)

	// Clamped: a pathological estimate must not park clients for minutes.
	s.solveLatency.bits.Store(math.Float64bits(1e6))
	if got := s.retryAfterSecs(); got != "60" {
		t.Fatalf("Retry-After with a 1e6-second estimate = %q, want \"60\" (clamped)", got)
	}
}

// TestRetryAfterOn429ReflectsObservedLatency drives the admission-refused
// path end to end: with the inflight semaphore saturated and a latency
// signal recorded, the 429 response must carry the derived hint, not the
// old hard-coded "1".
func TestRetryAfterOn429ReflectsObservedLatency(t *testing.T) {
	s := New(Options{Backend: engine.New(engine.Options{}), MaxInflight: 1})
	s.sem <- struct{}{} // saturate admission
	defer func() { <-s.sem }()
	s.solveLatency.observe(time.Duration(7*cap(s.evalSem)) * time.Second)

	req := httptest.NewRequest(http.MethodPost, "/v1/eval",
		strings.NewReader(`{"config":{}}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", rec.Code)
	}
	got := rec.Header().Get("Retry-After")
	if got != "7" {
		t.Errorf("429 Retry-After = %q, want \"7\" (derived from the 7*width-second EWMA)", got)
	}
	if secs, err := strconv.Atoi(got); err != nil || secs < 1 || secs > 60 {
		t.Errorf("429 Retry-After %q outside the whole-second [1,60] contract", got)
	}
}
