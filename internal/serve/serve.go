// Package serve exposes the incremental stress-map engine as a
// long-lived JSON-over-HTTP service — the ECO loop as an API. Each
// placement uploaded through POST /v1/placements becomes a session
// holding an incr.Engine (analyzer, tile partition, current field map);
// edits stream in through POST /v1/placements/{id}/edits and flush
// incrementally; GET .../map and GET .../screen read the maintained
// field without recomputation.
//
// Concurrency model: the session table is guarded by one mutex; every
// session serializes its own engine access with a per-session mutex, so
// two placements evaluate concurrently while edits to one placement are
// ordered. Lock order is ses.mu before Server.mu and never the
// reverse: compute handlers quarantine (Server.mu) while holding their
// session's lock, so no path may acquire a ses.mu while holding
// Server.mu — table readers snapshot under Server.mu and lock each
// session only after releasing it. Compute-bearing requests pass an
// admission semaphore
// (Options.MaxInFlight) and observe the request context: a request that
// cannot start before its deadline (or before AdmissionWait elapses) is
// rejected with 503 instead of queueing unboundedly — load sheds at the
// door, not in the middle of a half-applied edit batch.
//
// Fault tolerance (DESIGN.md §13): with Options.WALDir set, every
// accepted edit batch is appended to a per-session CRC-framed journal
// (internal/wal) and synced before the 200 goes out, with periodic
// placement snapshots; Recover rebuilds the sessions after a crash by
// checkpoint-and-replay. Deadlines cancel evaluation cooperatively per
// tile (core.ErrCanceled → 504). Handler and kernel panics are
// contained: the offending session is quarantined (503 on later
// compute; DELETE still works) and the process lives on. Under
// admission-queue pressure, full-mode flushes degrade to Stage-I-only
// (header X-Tsvserve-Degraded) and heal on the next calm request.
//
// Observability: expvar metrics under "tsvserve" (see metrics.go) —
// edit-latency histogram, dirty-point ratio of the last flush,
// in-flight/rejected/panic/WAL counters.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsvstress/internal/incr"
	"tsvstress/internal/material"
	"tsvstress/internal/prof"
	"tsvstress/internal/wal"
)

// Options configures the service. Zero values select production-safe
// defaults.
type Options struct {
	// MaxSessions bounds the number of live placement sessions
	// (default 16). Each session pins its field map and tile partition
	// in memory.
	MaxSessions int
	// MaxTSVs bounds the TSV count of one placement (default 20000).
	MaxTSVs int
	// MaxPoints bounds the simulation-point count of one session
	// (default 2,000,000).
	MaxPoints int
	// MaxInFlight bounds concurrently executing compute requests
	// (default 2×GOMAXPROCS is excessive for tile-parallel work; the
	// default is 4).
	MaxInFlight int
	// AdmissionWait is how long a request may wait for an execution
	// slot before 503 (default 5s; the request context's own deadline
	// applies too, whichever is sooner).
	AdmissionWait time.Duration
	// RequestTimeout is the per-request compute deadline applied when
	// the incoming context has none (default 60s).
	RequestTimeout time.Duration
	// WALDir enables crash-safe sessions: every accepted edit batch is
	// journaled (and synced) under WALDir/<session-id>/ before it is
	// acknowledged, with a placement snapshot every SnapshotEvery
	// batches. Empty disables durability (sessions die with the
	// process). Call Recover at startup to rebuild journaled sessions.
	WALDir string
	// SnapshotEvery is the number of accepted edit batches between
	// placement snapshots (default 8); snapshots bound journal length
	// and recovery replay time.
	SnapshotEvery int
	// ShedQueueDepth is the number of compute requests waiting for an
	// admission slot at which the service starts degrading full-mode
	// flushes to Stage-I-only (default 2×MaxInFlight). Degraded
	// responses carry the X-Tsvserve-Degraded header and heal on the
	// next un-pressured request.
	ShedQueueDepth int
	// MaxLiveSessions bounds the sessions holding a live engine in
	// memory (0 disables eviction). Requires WALDir: when a create,
	// import or hydration would exceed the bound, the least-recently
	// flushed durable session is evicted — final snapshot, journal
	// closed, engine released — and transparently rehydrated from its
	// WAL on the next request. MaxSessions still bounds the total
	// (live + evicted).
	MaxLiveSessions int
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 16
	}
	if o.MaxTSVs <= 0 {
		o.MaxTSVs = 20000
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 2_000_000
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.AdmissionWait <= 0 {
		o.AdmissionWait = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 8
	}
	if o.ShedQueueDepth <= 0 {
		o.ShedQueueDepth = 2 * o.MaxInFlight
	}
	return o
}

// Server is the service state: the session table and the admission
// semaphore. Create one with NewServer; with WAL durability enabled,
// call Recover before serving, then mount Handler on an http.Server
// and Close on the way out.
//
// Lock order: the session table lock (Server.mu) is a leaf — it is
// never held while acquiring a session's lock. Handlers snapshot the
// *session under Server.mu, release it, then lock the session. The
// directive below lets tsvlint prove the invariant statically (the
// pre-fix shape — iterating the table while locking each session —
// deadlocked against handlers holding a session lock while waiting on
// the table).
//
//tsvlint:lockorder session.mu < Server.mu
type Server struct {
	opt Options

	// ready gates /readyz: set once recovery (a no-op without a WAL
	// directory) has completed.
	ready atomic.Bool

	mu       sync.Mutex
	sessions map[string]*session
	// reserved counts session slots handed out by reserveID but not yet
	// published: a MaxSessions slot stays held while handleCreate opens
	// the session's journal, before anything is visible to requests.
	reserved int
	nextID   int
	// evicted names sessions whose engine was released to disk
	// (lifecycle.go): their WAL directory is the session until a
	// request hydrates it back. Guarded by mu.
	evicted map[string]bool
	// hydrating serializes rehydration per session id: the first
	// request builds, later ones wait on the channel. Guarded by mu.
	hydrating map[string]chan struct{}
}

// session is one live placement: an engine plus the bookkeeping the
// handlers need. Engine access happens under mu; the quarantined
// reason is guarded by the server mutex instead, so the panic-recovery
// middleware can set it without waiting on a wedged session.
type session struct {
	mu      sync.Mutex
	id      string
	engine  *incr.Engine
	st      material.Structure
	liner   string
	mode    string
	created time.Time
	// meta is the session's birth certificate (the normalized create
	// request), kept in memory so a session without a WAL can still be
	// exported (lifecycle.go synthesizes its bundle from it).
	meta metaRecord
	// lastUsed is the unix-nano time of the last compute access — the
	// LRU key eviction ranks by. Atomic so the eviction scan can read
	// it without taking every session's lock.
	lastUsed atomic.Int64
	// evicted flips once lifecycle.go released this session's engine:
	// a request that raced the eviction (holding a stale *session)
	// must re-resolve instead of computing against a closed journal.
	// Guarded by mu.
	evicted bool
	// migrating is the export fence: set by export?fence=1, it refuses
	// further compute on this replica while the gateway ships the
	// session elsewhere. Guarded by mu.
	migrating bool

	// log is the session's WAL (nil when durability is disabled);
	// operated under mu.
	log *wal.Log
	// batchesSinceSnap counts accepted batches since the last
	// snapshot; operated under mu.
	batchesSinceSnap int

	// quarantined is the non-empty reason this session refuses compute
	// requests (contained panic, WAL write failure, replay divergence).
	// Guarded by Server.mu.
	quarantined string
}

// NewServer builds a service with no sessions. It performs no I/O;
// call Recover to load journaled sessions from Options.WALDir.
func NewServer(opt Options) *Server {
	s := &Server{
		opt:       opt.withDefaults(),
		sessions:  make(map[string]*session),
		evicted:   make(map[string]bool),
		hydrating: make(map[string]chan struct{}),
	}
	// Without a WAL there is nothing to recover: the server is ready
	// the moment it exists.
	s.ready.Store(s.opt.WALDir == "")
	return s
}

// Handler returns the service's HTTP handler, including the expvar
// endpoint at /debug/vars and the pprof profile tree at /debug/pprof/
// (CPU-profiling a live server is how the tile kernels were tuned; see
// DESIGN.md §15). Every route runs inside the panic-recovery
// middleware: a handler or kernel panic becomes a 500 and a
// quarantined session, never a dead process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("POST /v1/placements", s.instrument("create", s.handleCreate))
	mux.HandleFunc("GET /v1/placements", s.handleList)
	mux.HandleFunc("POST /v1/placements/{id}/edits", s.instrument("edits", s.handleEdits))
	mux.HandleFunc("GET /v1/placements/{id}/map", s.instrument("map", s.handleMap))
	mux.HandleFunc("GET /v1/placements/{id}/screen", s.instrument("screen", s.handleScreen))
	mux.HandleFunc("POST /v1/placements/{id}/aging", s.instrument("aging", s.handleAging))
	mux.HandleFunc("GET /v1/placements/{id}/export", s.handleExport)
	mux.HandleFunc("POST /v1/placements/{id}/import", s.instrument("import", s.handleImport))
	mux.HandleFunc("DELETE /v1/placements/{id}", s.handleDelete)
	mux.Handle("GET /debug/vars", expvarHandler())
	mux.Handle("GET /debug/pprof/", prof.Handler())
	return s.withRecovery(mux)
}

// NumSessions returns the live session count.
func (s *Server) NumSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// withRecovery converts a panic escaping any handler into a 500
// response, a metric increment and — when the request targets a
// session — a quarantine of that session, instead of a dead process.
func (s *Server) withRecovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			metricPanics.Add(1)
			reason := fmt.Sprintf("handler panic on %s %s: %v", r.Method, r.URL.Path, rec)
			if id := sessionIDFromPath(r.URL.Path); id != "" {
				s.quarantine(id, reason)
			}
			// Best effort: if the handler already streamed a body this
			// header write is a no-op, and the truncated body is the
			// remaining signal.
			writeError(w, http.StatusInternalServerError, reason)
		}()
		h.ServeHTTP(w, r)
	})
}

// sessionIDFromPath extracts the {id} segment of /v1/placements/{id}/…
// without relying on mux path values (the recovery middleware sits
// outside the mux).
func sessionIDFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/placements/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// quarantine marks a session as refusing compute requests. The first
// reason wins; later quarantines of the same session are no-ops.
func (s *Server) quarantine(id, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ses, ok := s.sessions[id]
	if !ok || ses.quarantined != "" {
		return
	}
	ses.quarantined = reason
	metricQuarantined.Set(int64(s.quarantinedLocked()))
}

// quarantinedLocked counts quarantined sessions; caller holds s.mu.
func (s *Server) quarantinedLocked() int {
	n := 0
	for _, ses := range s.sessions {
		if ses.quarantined != "" {
			n++
		}
	}
	return n
}

// quarantinedCount counts quarantined sessions.
func (s *Server) quarantinedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantinedLocked()
}

// instrument wraps a compute-bearing handler with admission control,
// the default compute deadline and the request counters.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		metricRequests.Add(1)
		metricEndpointRequests.Add(name, 1)
		ctx := r.Context()
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opt.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		release, err := s.admit(ctx)
		if err != nil {
			metricRejects.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("%s: server at capacity (%d in flight): %v", name, s.opt.MaxInFlight, err))
			return
		}
		defer release()
		metricInFlight.Add(1)
		metricEndpointInFlight.Add(name, 1)
		defer func() {
			metricEndpointInFlight.Add(name, -1)
			metricInFlight.Add(-1)
		}()
		h(w, r)
	}
}

// admissionSlots is the process-wide compute semaphore, sized lazily
// from the first server's options (tests creating several servers
// share it; sizing races are harmless because the channel is only
// created once).
var (
	admitOnce sync.Once
	admitCh   chan struct{}
	// admitWaiting counts requests blocked on an admission slot — the
	// queue-pressure signal the degradation ladder keys off.
	admitWaiting atomic.Int64
)

func (s *Server) admit(ctx context.Context) (release func(), err error) {
	admitOnce.Do(func() { admitCh = make(chan struct{}, s.opt.MaxInFlight) })
	admitWaiting.Add(1)
	defer admitWaiting.Add(-1)
	wait := time.NewTimer(s.opt.AdmissionWait)
	defer wait.Stop()
	select {
	case admitCh <- struct{}{}:
		return func() { <-admitCh }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-wait.C:
		return nil, fmt.Errorf("no slot within %v", s.opt.AdmissionWait)
	}
}

// shedding reports whether the admission queue is deep enough that
// full-mode flushes should degrade to Stage I only.
func (s *Server) shedding() bool {
	return int(admitWaiting.Load()) >= s.opt.ShedQueueDepth
}

// retryAfterSeconds derives the Retry-After value for a rejected
// request: the current admission queue, plus the rejected request
// itself, drains at MaxInFlight-way parallelism priced at the last
// minute's mean compute latency (a 250ms prior before any
// observations). Clamped to [1, 60] so clients neither hammer nor
// stall.
func (s *Server) retryAfterSeconds() int {
	mean := windowMeanLatency(250 * time.Millisecond)
	queued := admitWaiting.Load() + 1
	wait := time.Duration(queued) * mean / time.Duration(s.opt.MaxInFlight)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// quarantinedError distinguishes "session exists but is fenced off"
// from "no such session" so the handler can answer 503, not 404.
type quarantinedError struct {
	id     string
	reason string
}

func (e *quarantinedError) Error() string {
	return fmt.Sprintf("placement %q is quarantined (%s); DELETE it and re-create", e.id, e.reason)
}

// reserveID allocates a session id and holds a MaxSessions slot for it
// without making anything visible: no request can observe the session
// until publishSession runs, by which point its journal (when
// durability is on) is already open. A non-empty requested id (the
// gateway's routing key, or an import) is used verbatim after
// validation; otherwise the server mints the next "p<n>" id.
func (s *Server) reserveID(requested string) (string, error) {
	if requested != "" {
		if err := validateSessionID(requested); err != nil {
			return "", err
		}
		// The server's own p<n> namespace is fenced off from requested
		// ids, so a client-chosen id can never collide with a minted one.
		if _, ok := parseSessionID(requested); ok {
			return "", &invalidIDError{msg: fmt.Sprintf(
				"session id %q collides with the server's p<n> namespace", requested)}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions)+len(s.evicted)+s.reserved >= s.opt.MaxSessions {
		return "", fmt.Errorf("session limit %d reached; DELETE an existing placement first", s.opt.MaxSessions)
	}
	if requested != "" {
		if _, ok := s.sessions[requested]; ok || s.evicted[requested] {
			return "", &idTakenError{id: requested}
		}
		s.reserved++
		return requested, nil
	}
	s.reserved++
	s.nextID++
	return "p" + strconv.Itoa(s.nextID), nil
}

// reserveImported reserves an explicitly shipped session id. Unlike
// reserveID it admits the server's own p<n> namespace — a session
// minted on one replica keeps its id when it migrates — advancing the
// mint counter past it so a future create can never collide with it.
func (s *Server) reserveImported(id string) error {
	if err := validateSessionID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions)+len(s.evicted)+s.reserved >= s.opt.MaxSessions {
		return fmt.Errorf("session limit %d reached; DELETE an existing placement first", s.opt.MaxSessions)
	}
	if _, ok := s.sessions[id]; ok || s.evicted[id] {
		return &idTakenError{id: id}
	}
	if n, ok := parseSessionID(id); ok && n > s.nextID {
		s.nextID = n
	}
	s.reserved++
	return nil
}

// idTakenError distinguishes "requested id already exists" (409) from
// capacity exhaustion (429).
type idTakenError struct{ id string }

func (e *idTakenError) Error() string {
	return fmt.Sprintf("placement %q already exists on this replica", e.id)
}

// invalidIDError marks a requested session id the server refuses on
// its face (charset, length, namespace) — a client error (422), not
// capacity exhaustion (429).
type invalidIDError struct{ msg string }

func (e *invalidIDError) Error() string { return e.msg }

// validateSessionID vets an externally supplied session id: it becomes
// a WAL directory name and a URL path segment, so the charset is
// conservative.
func validateSessionID(id string) error {
	if len(id) == 0 || len(id) > 64 {
		return &invalidIDError{msg: fmt.Sprintf("session id must be 1-64 characters, got %d", len(id))}
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || (c == '.' && i > 0) {
			continue
		}
		return &invalidIDError{msg: fmt.Sprintf("session id %q has invalid character %q", id, c)}
	}
	return nil
}

// publishSession makes a reserved session visible to requests.
func (s *Server) publishSession(id string, ses *session) {
	ses.lastUsed.Store(time.Now().UnixNano())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserved--
	ses.id = id
	s.sessions[id] = ses
	registerSessionQueue(id)
	metricSessions.Set(int64(len(s.sessions)))
}

// unreserve releases a slot taken by reserveID for a session that will
// never publish (its journal failed to initialize).
func (s *Server) unreserve() {
	s.mu.Lock()
	s.reserved--
	s.mu.Unlock()
}

func (s *Server) dropSession(id string) bool {
	s.mu.Lock()
	ses, ok := s.sessions[id]
	if !ok {
		// An evicted session is just its WAL directory; deleting it is
		// deleting the directory.
		if s.evicted[id] {
			delete(s.evicted, id)
			metricEvictedSessions.Set(int64(len(s.evicted)))
			s.mu.Unlock()
			_ = wal.Remove(s.sessionDir(id))
			return true
		}
		s.mu.Unlock()
		return false
	}
	delete(s.sessions, id)
	dropSessionQueue(id)
	metricSessions.Set(int64(len(s.sessions)))
	metricQuarantined.Set(int64(s.quarantinedLocked()))
	s.mu.Unlock()
	// Close and delete the journal outside the table lock; the session
	// is already unreachable.
	ses.mu.Lock()
	if ses.log != nil {
		_ = ses.log.Close()
		ses.log = nil
		_ = wal.Remove(filepath.Join(s.opt.WALDir, id))
	}
	ses.mu.Unlock()
	return true
}

// lockSession acquires the session's mutex while exporting the
// session's compute queue depth (requests holding or waiting on the
// lock) through the session_queue_depth expvar.
func lockSession(ses *session) (unlock func()) {
	leave := enterSessionQueue(ses.id)
	ses.mu.Lock()
	return func() {
		ses.mu.Unlock()
		leave()
	}
}

// sessionDir returns the WAL directory of a session id.
func (s *Server) sessionDir(id string) string {
	return filepath.Join(s.opt.WALDir, id)
}

// Close drains the sessions and persists their WAL state: for every
// session it takes the per-session lock (waiting out any in-flight
// request), writes a final snapshot when batches are owed, and closes
// the journal. It returns once every session drained or ctx expired —
// in the latter case naming how many sessions were still busy.
// Journaled state is already durable before Close runs (Append syncs
// before acknowledging), so a timed-out drain loses no acknowledged
// edits; the final snapshot only shortens the next recovery's replay.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		sessions = append(sessions, ses)
	}
	s.mu.Unlock()
	done := make(chan struct{}, len(sessions))
	for _, ses := range sessions {
		go func(ses *session) {
			defer func() { done <- struct{}{} }()
			ses.mu.Lock()
			defer ses.mu.Unlock()
			if ses.log == nil {
				return
			}
			if ses.batchesSinceSnap > 0 {
				if payload, err := marshalSnapshot(ses.engine.Placement()); err == nil {
					if ses.log.Snapshot(payload) == nil {
						ses.batchesSinceSnap = 0
						metricSnapshots.Add(1)
					}
				}
			}
			_ = ses.log.Close()
		}(ses)
	}
	for remaining := len(sessions); remaining > 0; remaining-- {
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("serve: shutdown drain expired with %d of %d sessions still busy: %w",
				remaining, len(sessions), ctx.Err())
		}
	}
	return nil
}
