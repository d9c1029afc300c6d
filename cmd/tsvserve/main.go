// Command tsvserve runs the incremental stress-analysis service: a
// long-lived HTTP server holding placement sessions whose stress maps
// update incrementally as edits stream in (the ECO loop as an API).
//
// Usage:
//
//	tsvserve -addr :8080 -wal /var/lib/tsvserve/wal
//
// API (JSON; see DESIGN.md §12–13):
//
//	POST   /v1/placements               create a session from a placement
//	GET    /v1/placements               list sessions
//	POST   /v1/placements/{id}/edits    apply an atomic edit batch + flush
//	GET    /v1/placements/{id}/map      field summary, or CSV with format=csv
//	GET    /v1/placements/{id}/screen   reliability ranking + KOZ radii
//	DELETE /v1/placements/{id}          drop a session
//	GET    /healthz                     liveness (200 while the process runs)
//	GET    /readyz                      readiness (recovery done, queue sane)
//	GET    /debug/vars                  expvar metrics
//
// With -wal set, every accepted edit batch is journaled and synced
// before it is acknowledged, and on startup the server rebuilds its
// sessions from the journals (checkpoint + replay), so a crash or kill
// loses no acknowledged edit. The server shuts down gracefully on
// SIGINT/SIGTERM, draining in-flight requests and session state within
// the -drain window before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"tsvstress/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsvserve: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxSessions = flag.Int("max-sessions", 16, "maximum live placement sessions")
		maxTSVs     = flag.Int("max-tsvs", 20000, "maximum TSVs per placement")
		maxPoints   = flag.Int("max-points", 2_000_000, "maximum simulation points per session")
		maxInFlight = flag.Int("max-inflight", 4, "maximum concurrently executing compute requests")
		reqTimeout  = flag.Duration("timeout", 60*time.Second, "per-request compute deadline")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
		maxLive     = flag.Int("max-live-sessions", 0, "sessions kept hydrated in memory; excess cold sessions are evicted to the WAL and rehydrated on demand (0 = no eviction; requires -wal)")
		walDir      = flag.String("wal", "", "journal directory for crash-safe sessions (empty = sessions die with the process)")
		snapEvery   = flag.Int("snapshot-every", 8, "edit batches between placement snapshots")
		shedDepth   = flag.Int("shed-depth", 0, "admission-queue depth that triggers full→ls degradation (0 = 2×max-inflight)")
	)
	flag.Parse()

	s := serve.NewServer(serve.Options{
		MaxSessions:     *maxSessions,
		MaxTSVs:         *maxTSVs,
		MaxPoints:       *maxPoints,
		MaxInFlight:     *maxInFlight,
		RequestTimeout:  *reqTimeout,
		WALDir:          *walDir,
		MaxLiveSessions: *maxLive,
		SnapshotEvery:   *snapEvery,
		ShedQueueDepth:  *shedDepth,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *walDir != "" {
		start := time.Now()
		n, err := s.Recover(ctx)
		if err != nil {
			// Per-session recovery failures are logged but not fatal:
			// healthy sessions serve, broken ones are quarantined or
			// left on disk for inspection.
			log.Printf("recovery: %v", err)
		}
		log.Printf("recovered %d session(s) from %s in %v", n, *walDir, time.Since(start).Round(time.Millisecond))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s (sessions ≤ %d, in-flight ≤ %d)", *addr, *maxSessions, *maxInFlight)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down (draining ≤ %v)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	// Persist session state (final snapshots, journal close) within
	// whatever remains of the drain window.
	if err := s.Close(shutCtx); err != nil {
		log.Printf("close: %v", err)
	}
}
