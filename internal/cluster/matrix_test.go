package cluster

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/faultinject"
	"tsvstress/internal/resilience"
	"tsvstress/internal/tensor"
)

// matrixResilience is the policy every matrix cell runs under: fast
// deterministic backoff (seeded jitter, so the retry schedule — and
// with it the attempt bounds asserted below — is a pure function of
// the config) and the production retry/breaker semantics otherwise.
func matrixResilience() resilience.Config {
	return resilience.Config{
		Backoff: resilience.BackoffConfig{
			Base: 2 * time.Millisecond, Max: 20 * time.Millisecond,
			Factor: 2, Jitter: 0.2, Seed: 42,
		},
	}.WithDefaults()
}

// matrixCell is one failure-mode column of the chaos matrix. arm
// injects the mode's faults; during (optional) runs while the map is in
// flight.
type matrixCell struct {
	name   string
	arm    func()
	during func(lw *LocalWorkers)
}

// matrixCells is the failure matrix's fault dimension. Every fault is
// bounded (Times) so no cell can take out the whole fleet: the harness
// drills recovery, not extinction.
func matrixCells() []matrixCell {
	return []matrixCell{
		{
			// A worker process dies mid-map: its chunks requeue onto the
			// survivors.
			name: "dead",
			arm: func() {
				faultinject.Set("cluster.worker.eval", faultinject.Fault{Delay: 15 * time.Millisecond})
			},
			during: func(lw *LocalWorkers) {
				time.Sleep(30 * time.Millisecond)
				lw.StopWorker(0)
			},
		},
		{
			// Every eval is slow: the derived deadlines must tolerate it and
			// the speculation hedge absorbs stragglers.
			name: "slow",
			arm: func() {
				faultinject.Set("cluster.worker.eval", faultinject.Fault{Delay: 20 * time.Millisecond})
			},
		},
		{
			// The network is flaky: eval RPCs fail probabilistically (a
			// deterministic splitmix64 stream) and the retry budget absorbs
			// them.
			name: "flaky",
			arm: func() {
				faultinject.Set("cluster.coord.eval", faultinject.Fault{Prob: 0.4, Seed: 11, Times: 6})
			},
		},
		{
			// Workers truncate result streams after the batch frame: the
			// coordinator must discard the partial response and retry — a
			// truncated result merged into the map would break parity.
			name: "partial",
			arm: func() {
				faultinject.Set("cluster.worker.partial", faultinject.Fault{Prob: 0.5, Seed: 5, Times: 4})
			},
		},
	}
}

// cellReport is one matrix cell's outcome for the CI artifact.
type cellReport struct {
	Cell       string  `json:"cell"`
	Mode       string  `json:"mode"`
	Attempts   int64   `json:"attempts"`
	Retries    int64   `json:"retries"`
	Timeouts   int64   `json:"timeouts"`
	Requeues   int64   `json:"requeues"`
	Steals     int64   `json:"steals"`
	Chunks     int64   `json:"chunks"`
	WorstMPa   float64 `json:"worstMPa"`
	ElapsedMs  float64 `json:"elapsedMs"`
	BudgetLeft float64 `json:"budgetLeft"`
}

// TestFailureMatrix sweeps {dead, slow, flaky, partial} × {Full, LS}:
// every cell must produce a map within 1e-9 MPa of the single-process
// core.MapInto reference, every eval RPC must carry a derived deadline
// (Attempts == Deadlined), and the attempt count must stay inside the
// retry budget — no cell is allowed to degenerate into a retry storm.
// With CHAOS_MATRIX_OUT set, the per-cell report is written there as
// JSON (the CI chaos-matrix job uploads it as an artifact).
func TestFailureMatrix(t *testing.T) {
	fx := newFixture(t, 80, 1.8)
	refs := map[core.Mode][]tensor.Stress{core.ModeFull: fx.want}
	lsRef := make([]tensor.Stress, len(fx.pts))
	if err := fx.an.MapInto(context.Background(), lsRef, fx.pts, core.ModeLS); err != nil {
		t.Fatal(err)
	}
	refs[core.ModeLS] = lsRef

	var reports []cellReport
	for _, cell := range matrixCells() {
		for _, mc := range []struct {
			mode core.Mode
			name string
		}{{core.ModeFull, "full"}, {core.ModeLS, "ls"}} {
			t.Run(cell.name+"/"+mc.name, func(t *testing.T) {
				lw, err := StartLocalWorkers(3, WorkerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer lw.Stop()
				c, err := NewCoordinator(lw.Addrs(), CoordinatorOptions{
					HeartbeatEvery: -1,
					PingTimeout:    5 * time.Second,
					Resilience:     matrixResilience(),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if err := c.Ping(context.Background()); err != nil {
					t.Fatal(err)
				}

				cell.arm()
				defer faultinject.Reset()
				got := make([]tensor.Stress, len(fx.pts))
				start := time.Now()
				mapErr := make(chan error, 1)
				go func() {
					mapErr <- c.Map(context.Background(), got, fx.st, fx.pl, fx.pts, mc.mode, core.Options{})
				}()
				if cell.during != nil {
					cell.during(lw)
				}
				if err := <-mapErr; err != nil {
					t.Fatalf("map under %s: %v", cell.name, err)
				}
				elapsed := time.Since(start)

				want := refs[mc.mode]
				worst := 0.0
				for i := range got {
					if d := maxAbsDiff(got[i], want[i]); d > worst {
						worst = d
					}
				}
				if worst > 1e-9 {
					t.Errorf("map under %s diverges from MapInto by %g MPa", cell.name, worst)
				}

				st := c.Stats()
				if st.Attempts == 0 || st.Attempts != st.Deadlined {
					t.Errorf("attempts %d, deadlined %d: every eval RPC must carry a derived deadline",
						st.Attempts, st.Deadlined)
				}
				// Attempt accounting: dispatches = chunks + requeues +
				// steals; each dispatch spends at most one first attempt,
				// each retry is budget-metered, and every attempt performs
				// at most two eval RPCs (the 404 re-ship).
				if maxAttempts := 2 * (st.Chunks + st.Requeues + st.Steals + st.Retries); st.Attempts > maxAttempts {
					t.Errorf("attempts %d exceed the dispatch bound %d (stats %+v)", st.Attempts, maxAttempts, st)
				}
				if budget := matrixResilience().Budget.MaxTokens; float64(st.Retries) > budget {
					t.Errorf("retries %d exceed the %g-token budget", st.Retries, budget)
				}
				reports = append(reports, cellReport{
					Cell: cell.name, Mode: mc.name,
					Attempts: st.Attempts, Retries: st.Retries, Timeouts: st.Timeouts,
					Requeues: st.Requeues, Steals: st.Steals, Chunks: st.Chunks,
					WorstMPa:   worst,
					ElapsedMs:  float64(elapsed) / float64(time.Millisecond),
					BudgetLeft: st.BudgetTokens,
				})
			})
		}
	}
	if out := os.Getenv("CHAOS_MATRIX_OUT"); out != "" && len(reports) > 0 {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Errorf("chaos matrix report: %v", err)
		}
	}
}

// TestHeartbeatFlappingDampened drills register/deregister churn: ping
// faults flap the whole fleet to dead mid-map. The per-worker breakers
// (threshold 2 here) trip after the second consecutive failed round,
// and while they cool down further ping rounds are suppressed — the
// flapping is dampened instead of amplified. The in-flight map must
// still complete with exact parity (no tile lost to the churn, none
// double-merged), and after the cool-down one probe ping per worker
// heals the fleet.
func TestHeartbeatFlappingDampened(t *testing.T) {
	fx := newFixture(t, 60, 2)
	lw, err := StartLocalWorkers(3, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Stop()
	res := matrixResilience()
	res.Breaker = resilience.BreakerConfig{FailureThreshold: 2, OpenFor: 100 * time.Millisecond}
	c, err := NewCoordinator(lw.Addrs(), CoordinatorOptions{
		HeartbeatEvery: -1, PingTimeout: 5 * time.Second, Resilience: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	// Slow evals keep the map in flight across the ping churn.
	faultinject.Set("cluster.worker.eval", faultinject.Fault{Delay: 10 * time.Millisecond})
	defer faultinject.Reset()
	got := make([]tensor.Stress, len(fx.pts))
	mapErr := make(chan error, 1)
	go func() {
		mapErr <- c.Map(ctx, got, fx.st, fx.pl, fx.pts, core.ModeFull, core.Options{})
	}()
	time.Sleep(15 * time.Millisecond)

	// Exactly two failing ping rounds: 3 workers × 2 rounds = 6 firings,
	// two consecutive failures per worker — the trip threshold.
	faultinject.Set("cluster.coord.ping", faultinject.Fault{Times: 6})
	c.pingAll(ctx)
	c.pingAll(ctx)
	if n := c.NumAlive(); n != 0 {
		t.Fatalf("%d workers alive after two failing ping rounds", n)
	}
	for _, w := range c.Workers() {
		if w.Breaker != "open" {
			t.Errorf("worker %s breaker %q after flapping, want open", w.Addr, w.Breaker)
		}
	}
	// The ping fault is spent, but the cooling breakers suppress the
	// next round entirely: the fleet stays (nominally) dead instead of
	// flapping straight back — that is the damping.
	c.pingAll(ctx)
	if n := c.NumAlive(); n != 0 {
		t.Fatalf("%d workers re-registered inside the breaker cool-down", n)
	}

	// The churn must not have corrupted the in-flight map.
	if err := <-mapErr; err != nil {
		t.Fatalf("map under heartbeat flapping: %v", err)
	}
	for i := range got {
		if got[i] != fx.want[i] {
			t.Fatalf("point %d diverges after heartbeat flapping", i)
		}
	}

	// Cool-down elapses: one probe ping per worker heals the fleet.
	time.Sleep(150 * time.Millisecond)
	c.pingAll(ctx)
	if n := c.NumAlive(); n != 3 {
		t.Fatalf("%d workers alive after the heal round, want 3", n)
	}
	st := c.Stats()
	if st.BreakerOpens < 3 {
		t.Errorf("breaker opens %d after three tripped workers", st.BreakerOpens)
	}
	for _, w := range st.Workers {
		if w.Breaker != "closed" {
			t.Errorf("worker %s breaker %q after heal, want closed", w.Addr, w.Breaker)
		}
	}
}
