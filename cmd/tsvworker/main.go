// Command tsvworker runs one evaluation worker of the sharded compute
// cluster (DESIGN.md §14). A worker is stateless from the operator's
// point of view: it holds per-job analyzers only as a cache, and a
// coordinator that loses a worker simply re-ships the job to another
// one. Start a fleet, then point tsvexp -cluster at the addresses:
//
//	tsvworker -addr :9101 &
//	tsvworker -addr :9102 &
//	tsvexp -cluster localhost:9101,localhost:9102
//
// Endpoints (length-prefixed binary frames over HTTP; DESIGN.md §14):
//
//	GET    /v1/cluster/ping          liveness + protocol version + cores
//	POST   /v1/cluster/jobs/{id}     declare a job (placement, points, spec)
//	POST   /v1/cluster/jobs/{id}/eval evaluate a batch of tiles
//	DELETE /v1/cluster/jobs/{id}     drop a job's cached state
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"tsvstress/internal/cluster"
	"tsvstress/internal/resilience"
)

// listenRetry binds addr, retrying with deterministic backoff when the
// port is momentarily unavailable — the common fleet-restart race where
// the old process's socket lingers in TIME_WAIT or the supervisor
// restarts workers faster than the kernel releases the port. Binding is
// how a worker joins the fleet (coordinators register workers by
// heartbeat), so a transiently busy port should delay registration, not
// kill the process.
func listenRetry(ctx context.Context, addr string, attempts int) (net.Listener, error) {
	bo := resilience.BackoffConfig{Base: 200 * time.Millisecond, Max: 2 * time.Second}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		if attempt == attempts {
			break
		}
		delay := bo.Next(attempt)
		log.Printf("bind %s: %v (retry %d/%d in %v)", addr, err, attempt, attempts-1, delay)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
	}
	return nil, lastErr
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsvworker: ")
	var (
		addr        = flag.String("addr", ":9101", "listen address")
		maxJobs     = flag.Int("max-jobs", 8, "job states cached before LRU eviction")
		threads     = flag.Int("threads", 0, "tile-evaluation parallelism (0 = all cores)")
		drain       = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
		bindRetries = flag.Int("bind-retries", 5, "listener-bind attempts before giving up (backoff between attempts)")
	)
	flag.Parse()

	w := cluster.NewWorker(cluster.WorkerOptions{MaxJobs: *maxJobs, Workers: *threads})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           w.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := listenRetry(ctx, *addr, *bindRetries)
	if err != nil {
		log.Fatalf("bind %s: %v", *addr, err)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("worker listening on %s (job cache %d, threads %d)", ln.Addr(), *maxJobs, *threads)

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
}
