// Package obs is the stdlib-only observability layer of the pipeline: an
// atomic metrics registry (counters, gauges, bounded histograms with
// quantile snapshots) plus lightweight stage timers, a deterministic JSON
// run-report, and — in the debug subpackage — a /metrics and pprof HTTP server.
//
// Every handle is nil-safe: a nil *Registry hands out nil *Counter,
// *Gauge, and *Histogram values whose methods are allocation-free no-ops,
// so instrumented hot paths cost nothing when observability is disabled.
// Callers resolve handles once (outside loops) and mutate them atomically.
//
// Counter content is deterministic for the synthesis pipeline: every
// counter records a schedule-independent quantity (tests run, cache
// misses, rows flagged), so a run-report's counters section is identical
// at any worker count and safe to diff in tests. Wall-clock lives only in
// histograms, which the report keeps in a separate stages section.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil counter is a
// no-op; methods never allocate.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions (worker counts,
// queue depths). The nil gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histRing bounds a histogram's memory: only the most recent histRing
// observations feed the quantile snapshot, while count/sum/min/max cover
// everything ever observed.
const histRing = 512

// Histogram records int64 observations (the pipeline uses nanoseconds)
// with bounded memory. The nil histogram is a no-op; Observe never
// allocates.
type Histogram struct {
	mu    sync.Mutex
	count int64
	sum   int64
	min   int64
	max   int64
	ring  [histRing]int64
	n     int // filled entries of ring
	pos   int // next write position
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.ring[h.pos] = v
	h.pos = (h.pos + 1) % histRing
	if h.n < histRing {
		h.n++
	}
	h.mu.Unlock()
}

// Span is an in-flight stage timing; Stop records the elapsed time into
// the originating histogram. The zero Span (from a nil histogram) is a
// no-op that never reads the clock.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// Start opens a span on h.
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// Stop closes the span, observes the elapsed duration, and returns it.
func (s Span) Stop() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.h.Observe(int64(d))
	return d
}

// Registry hands out named metric handles. The nil registry hands out nil
// handles, making every downstream mutation free; obtain handles once per
// stage, not per row.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	exacts   map[string]*Hist
	cvecs    map[string]*CounterVec
	hvecs    map[string]*HistogramVec
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		exacts:   map[string]*Hist{},
		cvecs:    map[string]*CounterVec{},
		hvecs:    map[string]*HistogramVec{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Exact returns the exact mergeable histogram registered under name,
// creating it (with defaultHistShards writer shards) on first use. A nil
// registry returns a nil (no-op) histogram. Unlike Histogram's bounded
// ring, an exact histogram's quantiles cover every observation ever made
// and its Observe path is lock-free — the serving hot path uses these.
func (r *Registry) Exact(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.exacts[name]
	if h == nil {
		h = NewHist(defaultHistShards())
		r.exacts[name] = h
	}
	return h
}

// CounterVec returns the labeled counter family registered under name,
// creating it with the given label keys on first use. Label keys are
// fixed at first registration; later calls return the existing vector
// regardless of the keys argument. A nil registry returns a nil vector.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.cvecs[name]
	if v == nil {
		v = &CounterVec{v: newVec(name, append([]string(nil), keys...), func() *Counter { return &Counter{} })}
		r.cvecs[name] = v
	}
	return v
}

// HistogramVec returns the labeled exact-histogram family registered
// under name, creating it with the given label keys on first use. A nil
// registry returns a nil vector.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.hvecs[name]
	if v == nil {
		shards := defaultHistShards()
		v = &HistogramVec{
			v:      newVec(name, append([]string(nil), keys...), func() *Hist { return NewHist(shards) }),
			shards: shards,
		}
		r.hvecs[name] = v
	}
	return v
}

// quantile picks the q-quantile from sorted (nearest-rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// testHookSnapshotUnlocked, when non-nil, runs after snapshot has copied
// the ring and released the histogram mutex, immediately before the
// sort. The regression test for scrape-stalls-Observe calls Observe from
// inside the hook — which deadlocks if the quantile work ever moves back
// under the lock. Production leaves it nil.
var testHookSnapshotUnlocked func()

// histSnapshot reduces a histogram: the aggregate fields and the ring
// copy are read under the lock, but the O(n log n) quantile sort runs
// after release — a slow scrape must never stall hot-path Observes.
func (h *Histogram) snapshot(name string) StageSnapshot {
	h.mu.Lock()
	s := StageSnapshot{
		Name:    name,
		Count:   h.count,
		Sampled: int64(h.n),
		TotalNS: h.sum,
		MinNS:   h.min,
		MaxNS:   h.max,
	}
	recent := append([]int64(nil), h.ring[:h.n]...)
	h.mu.Unlock()
	if hook := testHookSnapshotUnlocked; hook != nil {
		hook()
	}
	sort.Slice(recent, func(i, j int) bool { return recent[i] < recent[j] })
	s.P50NS = quantile(recent, 0.50)
	s.P90NS = quantile(recent, 0.90)
	s.P99NS = quantile(recent, 0.99)
	return s
}
