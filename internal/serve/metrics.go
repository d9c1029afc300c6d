package serve

import (
	"expvar"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsvstress/internal/incr"
)

// Service metrics, published once under the "tsvserve" expvar map (the
// package may construct many Servers — tests do — but expvar names are
// process-global, so the vars live at package level and aggregate).
var (
	metricRequests        = new(expvar.Int)   // compute requests accepted for admission
	metricRejects         = new(expvar.Int)   // admission rejections (503)
	metricInFlight        = new(expvar.Int)   // currently executing compute requests
	metricSessions        = new(expvar.Int)   // live placement sessions
	metricEdits           = new(expvar.Int)   // applied edits
	metricFlushes         = new(expvar.Int)   // incremental flushes
	metricDirtyRatio      = new(expvar.Float) // dirty-point ratio of the last flush
	metricPanics          = new(expvar.Int)   // contained handler/kernel panics
	metricQuarantined     = new(expvar.Int)   // currently quarantined sessions
	metricDegraded        = new(expvar.Int)   // load-shedding (full→ls) flushes served
	metricWALAppends      = new(expvar.Int)   // journaled edit batches
	metricWALErrors       = new(expvar.Int)   // WAL append/snapshot failures
	metricSnapshots       = new(expvar.Int)   // placement snapshots written
	metricRecovered       = new(expvar.Int)   // sessions restored by Recover
	metricEvictions       = new(expvar.Int)   // cold sessions checkpointed out of memory
	metricHydrations      = new(expvar.Int)   // evicted sessions rebuilt on demand
	metricExports         = new(expvar.Int)   // session bundles shipped out
	metricImports         = new(expvar.Int)   // session bundles taken in
	metricEvictedSessions = new(expvar.Int)   // sessions currently on disk only
	// Per-endpoint request accounting, keyed by route name ("create",
	// "edits", "map", "screen", "aging"): cumulative request counts and
	// a live in-flight gauge per route, so a dashboard can tell a stuck
	// aging simulation from edit-path pressure at a glance.
	metricEndpointRequests = new(expvar.Map).Init()
	metricEndpointInFlight = new(expvar.Map).Init()
	editLatency            = newHistogram("edit_latency_ms",
		1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)
	// editLatencyWindow is the rolling complement of the cumulative
	// histogram above: the same buckets over (only) the last minute, so
	// dashboards see current latency without differentiating counters.
	editLatencyWindow = newRollingHistogram(6, 10*time.Second,
		1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)
)

func init() {
	m := expvar.NewMap("tsvserve")
	m.Set("requests_total", metricRequests)
	m.Set("admission_rejects_total", metricRejects)
	m.Set("in_flight", metricInFlight)
	m.Set("sessions", metricSessions)
	m.Set("edits_total", metricEdits)
	m.Set("flushes_total", metricFlushes)
	m.Set("last_dirty_ratio", metricDirtyRatio)
	m.Set("panics_total", metricPanics)
	m.Set("quarantined_sessions", metricQuarantined)
	m.Set("degraded_responses_total", metricDegraded)
	m.Set("wal_appends_total", metricWALAppends)
	m.Set("wal_errors_total", metricWALErrors)
	m.Set("snapshots_total", metricSnapshots)
	m.Set("recovered_sessions_total", metricRecovered)
	m.Set("admit_waiting", expvar.Func(func() any { return admitWaiting.Load() }))
	m.Set("edit_latency_ms", editLatency.m)
	m.Set("edit_latency_ms_1m", expvar.Func(editLatencyWindow.snapshot))
	m.Set("session_queue_depth", expvar.Func(sessionQueueDepths))
	m.Set("evictions_total", metricEvictions)
	m.Set("hydrations_total", metricHydrations)
	m.Set("exports_total", metricExports)
	m.Set("imports_total", metricImports)
	m.Set("evicted_sessions", metricEvictedSessions)
	m.Set("endpoint_requests_total", metricEndpointRequests)
	m.Set("endpoint_in_flight", metricEndpointInFlight)
}

// histogram is a fixed-bucket latency histogram over expvar counters:
// cumulative "le_<bound>" buckets plus count and sum, the layout
// scrapers expect from Prometheus-style histograms.
type histogram struct {
	bounds  []float64 // upper bounds, ascending
	buckets []*expvar.Int
	inf     *expvar.Int
	count   *expvar.Int
	sum     *expvar.Float
	m       *expvar.Map
}

func newHistogram(name string, bounds ...float64) *histogram {
	h := &histogram{
		bounds: bounds,
		inf:    new(expvar.Int),
		count:  new(expvar.Int),
		sum:    new(expvar.Float),
		m:      new(expvar.Map),
	}
	for _, b := range bounds {
		v := new(expvar.Int)
		h.buckets = append(h.buckets, v)
		h.m.Set("le_"+strconv.FormatFloat(b, 'g', -1, 64), v)
	}
	h.m.Set("le_inf", h.inf)
	h.m.Set("count", h.count)
	h.m.Set("sum", h.sum)
	return h
}

// observe records one duration. Buckets are cumulative: every bucket
// whose bound is ≥ the value increments.
func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.count.Add(1)
	h.sum.Add(ms)
	h.inf.Add(1)
	for i, b := range h.bounds {
		if ms <= b {
			h.buckets[i].Add(1)
		}
	}
}

// rollingHistogram is a reset-safe rolling-window view of the same
// latency distribution: observations land in the current time slot of a
// ring, slots older than the window are discarded on rotation, and a
// snapshot merges the live slots. Unlike the cumulative histogram it
// answers "what does latency look like right now" directly — and a
// scraper restart loses nothing, because the window carries its own
// history.
type rollingHistogram struct {
	mu      sync.Mutex
	bounds  []float64
	slotDur time.Duration
	slots   []histSlot
	cur     int
}

type histSlot struct {
	start   time.Time // zero: slot is empty
	buckets []int64   // cumulative, per bound
	inf     int64
	count   int64
	sum     float64
}

func newRollingHistogram(nSlots int, slotDur time.Duration, bounds ...float64) *rollingHistogram {
	h := &rollingHistogram{bounds: bounds, slotDur: slotDur, slots: make([]histSlot, nSlots)}
	for i := range h.slots {
		h.slots[i].buckets = make([]int64, len(bounds))
	}
	return h
}

// rotateLocked advances the ring so slots[cur] covers now, zeroing every
// slot whose window has passed. Caller holds mu.
func (h *rollingHistogram) rotateLocked(now time.Time) {
	cur := &h.slots[h.cur]
	if cur.start.IsZero() {
		cur.start = now.Truncate(h.slotDur)
		return
	}
	for now.Sub(h.slots[h.cur].start) >= h.slotDur {
		next := h.slots[h.cur].start.Add(h.slotDur)
		h.cur = (h.cur + 1) % len(h.slots)
		s := &h.slots[h.cur]
		s.start = next
		for i := range s.buckets {
			s.buckets[i] = 0
		}
		s.inf, s.count, s.sum = 0, 0, 0
	}
}

func (h *rollingHistogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rotateLocked(time.Now())
	s := &h.slots[h.cur]
	s.count++
	s.sum += ms
	s.inf++
	for i, b := range h.bounds {
		if ms <= b {
			s.buckets[i]++
		}
	}
}

// snapshot merges the slots still inside the window into one
// histogram-shaped map (the expvar.Func payload).
func (h *rollingHistogram) snapshot() any {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	h.rotateLocked(now)
	window := h.slotDur * time.Duration(len(h.slots))
	out := make(map[string]any, len(h.bounds)+3)
	merged := make([]int64, len(h.bounds))
	var inf, count int64
	var sum float64
	for _, s := range h.slots {
		if s.start.IsZero() || now.Sub(s.start) >= window {
			continue
		}
		for i := range merged {
			merged[i] += s.buckets[i]
		}
		inf += s.inf
		count += s.count
		sum += s.sum
	}
	for i, b := range h.bounds {
		out["le_"+strconv.FormatFloat(b, 'g', -1, 64)] = merged[i]
	}
	out["le_inf"] = inf
	out["count"] = count
	out["sum"] = sum
	out["window_s"] = window.Seconds()
	return out
}

// sessionQueue maps session id → waiters-plus-holder count of that
// session's mutex: how many compute requests are stacked on one
// placement right now. Counters register at publish and unregister at
// drop, so the expvar map never names dead sessions.
var sessionQueue sync.Map // string → *atomic.Int64

func registerSessionQueue(id string) {
	sessionQueue.Store(id, new(atomic.Int64))
}

func dropSessionQueue(id string) {
	sessionQueue.Delete(id)
}

// enterSessionQueue bumps a session's queue depth, returning the undo.
// Unregistered ids (a session mid-drop) count nowhere, harmlessly.
func enterSessionQueue(id string) func() {
	v, ok := sessionQueue.Load(id)
	if !ok {
		return func() {}
	}
	n := v.(*atomic.Int64)
	n.Add(1)
	return func() { n.Add(-1) }
}

func sessionQueueDepths() any {
	out := make(map[string]int64)
	sessionQueue.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// windowMeanLatency is the mean compute latency over the rolling
// window, or fallback when the window is empty.
func windowMeanLatency(fallback time.Duration) time.Duration {
	snap, ok := editLatencyWindow.snapshot().(map[string]any)
	if !ok {
		return fallback
	}
	count, _ := snap["count"].(int64)
	sum, _ := snap["sum"].(float64)
	if count <= 0 {
		return fallback
	}
	return time.Duration(sum / float64(count) * float64(time.Millisecond))
}

// recordFlush publishes the engine counters of the session that just
// flushed.
func recordFlush(st incr.Stats, elapsed time.Duration) {
	metricFlushes.Add(1)
	metricDirtyRatio.Set(st.LastDirtyRatio)
	editLatency.observe(elapsed)
	editLatencyWindow.observe(elapsed)
}

// expvarHandler exposes the process expvar page (/debug/vars).
func expvarHandler() http.Handler { return expvar.Handler() }
