package cluster

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/faultinject"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// fixture is one shared evaluation problem: a placement, a simulation
// grid and the single-process reference result the cluster must
// reproduce.
type fixture struct {
	st   material.Structure
	pl   *geom.Placement
	pts  []geom.Point
	an   *core.Analyzer
	want []tensor.Stress
}

func newFixture(t *testing.T, nTSV int, spacing float64) *fixture {
	t.Helper()
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(nTSV, 1e-2, 2*st.RPrime+1, 29)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.New(st, pl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	region := pl.Bounds(5)
	nx := int(region.W()/spacing) + 1
	ny := int(region.H()/spacing) + 1
	pts := make([]geom.Point, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			pts = append(pts, geom.Pt(region.Min.X+float64(i)*spacing, region.Min.Y+float64(j)*spacing))
		}
	}
	want := make([]tensor.Stress, len(pts))
	if err := an.MapInto(context.Background(), want, pts, core.ModeFull); err != nil {
		t.Fatal(err)
	}
	return &fixture{st: st, pl: pl, pts: pts, an: an, want: want}
}

func maxAbsDiff(a, b tensor.Stress) float64 {
	d := math.Abs(a.XX - b.XX)
	if v := math.Abs(a.YY - b.YY); v > d {
		d = v
	}
	if v := math.Abs(a.XY - b.XY); v > d {
		d = v
	}
	return d
}

// startCluster launches n local workers and a coordinator over them,
// with heartbeats disabled (tests drive liveness synchronously) unless
// hb is positive.
func startCluster(t *testing.T, n int, hb time.Duration) (*LocalWorkers, *Coordinator) {
	t.Helper()
	lw, err := StartLocalWorkers(n, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lw.Stop)
	if hb == 0 {
		hb = -1
	}
	c, err := NewCoordinator(lw.Addrs(), CoordinatorOptions{HeartbeatEvery: hb, PingTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	return lw, c
}

// TestClusterMapParity is the acceptance property: a cluster map over
// any fleet size reproduces the single-process MapInto — bit-for-bit
// here, which trivially satisfies the ≤1e-9 MPa pin. The worker counts
// cover one worker (every chunk through one batched result stream),
// even splits, and a count coprime to the chunk fan-out (uneven
// chunking, so batch frames of different sizes merge into one grid).
func TestClusterMapParity(t *testing.T) {
	fx := newFixture(t, 90, 1.5)
	for _, n := range []int{1, 2, 4, 7} {
		_, c := startCluster(t, n, 0)
		got := make([]tensor.Stress, len(fx.pts))
		if err := c.Map(context.Background(), got, fx.st, fx.pl, fx.pts, core.ModeFull, core.Options{}); err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		worst := 0.0
		for i := range got {
			if d := maxAbsDiff(got[i], fx.want[i]); d > worst {
				worst = d
			}
		}
		if worst != 0 {
			t.Errorf("%d workers: cluster map diverges from MapInto by %g MPa", n, worst)
		}
		if s := c.Stats(); s.Maps != 1 || s.Chunks == 0 {
			t.Errorf("%d workers: stats %+v after one map", n, s)
		}
	}
}

// TestClusterMapModes pins parity for the cheaper modes too.
func TestClusterMapModes(t *testing.T) {
	fx := newFixture(t, 60, 2)
	_, c := startCluster(t, 2, 0)
	for _, mode := range []core.Mode{core.ModeLS, core.ModeInteractive} {
		want := make([]tensor.Stress, len(fx.pts))
		if err := fx.an.MapInto(context.Background(), want, fx.pts, mode); err != nil {
			t.Fatal(err)
		}
		got := make([]tensor.Stress, len(fx.pts))
		if err := c.Map(context.Background(), got, fx.st, fx.pl, fx.pts, mode, core.Options{}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("mode %v: point %d diverges", mode, i)
			}
		}
	}
}

// TestClusterKillWorkerMidMap is the chaos drill: every eval is slowed
// so the map is in flight long enough to hard-stop one worker under it.
// The coordinator must mark the worker dead, requeue its chunks and
// finish the map with the survivors — with exact parity.
func TestClusterKillWorkerMidMap(t *testing.T) {
	fx := newFixture(t, 90, 1.5)
	lw, c := startCluster(t, 3, 0)
	faultinject.Set("cluster.worker.eval", faultinject.Fault{Delay: 25 * time.Millisecond})
	defer faultinject.Reset()

	got := make([]tensor.Stress, len(fx.pts))
	mapErr := make(chan error, 1)
	go func() {
		mapErr <- c.Map(context.Background(), got, fx.st, fx.pl, fx.pts, core.ModeFull, core.Options{})
	}()
	time.Sleep(40 * time.Millisecond) // well inside the slowed map
	lw.StopWorker(0)
	if err := <-mapErr; err != nil {
		t.Fatalf("map with a killed worker: %v", err)
	}
	for i := range got {
		if got[i] != fx.want[i] {
			t.Fatalf("point %d diverges after worker death", i)
		}
	}
	if s := c.Stats(); s.WorkerFailures == 0 {
		t.Errorf("worker death not observed: stats %+v", s)
	}
}

// TestClusterEvalFaultFallthrough drills the injected-failure path: the
// first few evals fail server-side, the scheduler requeues, and the map
// still completes exactly (the worker is marked dead, the survivors
// absorb the work).
func TestClusterEvalFaultRequeue(t *testing.T) {
	fx := newFixture(t, 60, 2)
	_, c := startCluster(t, 3, 0)
	faultinject.Set("cluster.worker.eval", faultinject.Fault{Times: 2})
	defer faultinject.Reset()

	got := make([]tensor.Stress, len(fx.pts))
	if err := c.Map(context.Background(), got, fx.st, fx.pl, fx.pts, core.ModeFull, core.Options{}); err != nil {
		t.Fatalf("map with injected eval faults: %v", err)
	}
	for i := range got {
		if got[i] != fx.want[i] {
			t.Fatalf("point %d diverges after injected faults", i)
		}
	}
}

// TestClusterMapCancel pins cooperative cancellation: a canceled
// context aborts the map with an error matching core.ErrCanceled and
// tile-level progress attached.
func TestClusterMapCancel(t *testing.T) {
	fx := newFixture(t, 90, 1.5)
	_, c := startCluster(t, 2, 0)
	faultinject.Set("cluster.worker.eval", faultinject.Fault{Delay: 25 * time.Millisecond})
	defer faultinject.Reset()

	ctx, cancel := context.WithCancel(context.Background())
	got := make([]tensor.Stress, len(fx.pts))
	mapErr := make(chan error, 1)
	go func() {
		mapErr <- c.Map(ctx, got, fx.st, fx.pl, fx.pts, core.ModeFull, core.Options{})
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	err := <-mapErr
	if err == nil {
		t.Fatal("canceled map returned nil")
	}
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled map returned %v, want core.ErrCanceled", err)
	}
	var ce *core.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled map returned %T, want *core.CancelError", err)
	}
	if ce.TilesTotal == 0 {
		t.Errorf("cancel error carries no progress: %+v", ce)
	}
}

// TestClusterNoWorkers pins the fail-fast shape when nothing answers.
func TestClusterNoWorkers(t *testing.T) {
	c, err := NewCoordinator([]string{"127.0.0.1:1"}, CoordinatorOptions{HeartbeatEvery: -1, PingTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err == nil {
		t.Error("ping over a dead fleet returned nil")
	}
	fx := newFixture(t, 20, 3)
	got := make([]tensor.Stress, len(fx.pts))
	if err := c.Map(context.Background(), got, fx.st, fx.pl, fx.pts, core.ModeFull, core.Options{}); err == nil {
		t.Error("map over a dead fleet returned nil")
	}
}

// TestWorkerProtocolErrors exercises the lost-job recovery path Map
// depends on, end-to-end through the coordinator's RPC helpers: an eval
// for a job the worker no longer holds is a retryable 404, and
// evalChunk then re-initializes in full and evaluates.
func TestWorkerProtocolErrors(t *testing.T) {
	fx := newFixture(t, 20, 3)
	lw, c := startCluster(t, 1, 0)
	w := c.workers[0]

	opt := core.Options{}.Resolved()
	cutoff := opt.GatherCutoff(core.ModeFull)
	tl, err := core.NewTiling(fx.pts, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	j := &job{id: c.newJobID("t"), pl: fx.pl.Clone(), pts: fx.pts}
	j.spec = jobSpec{
		Job: j.id, Struct: fx.st, Options: opt, Mode: core.ModeFull,
		TileCutoff: cutoff, NumTiles: tl.NumTiles(), NumPoints: len(fx.pts),
	}
	ctx := context.Background()

	if err := c.ensureInit(ctx, w, j); err != nil {
		t.Fatalf("full init: %v", err)
	}
	// Lose the job the way an eviction or restart would: dropJob deletes
	// the worker's copy (asynchronously) and clears the ledger.
	c.dropJob(j.id)
	for deadline := time.Now().Add(5 * time.Second); lw.workers[0].NumJobs() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker still holds the dropped job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, retryable, err := c.evalRPC(ctx, w, j, []int32{0}, core.ModeFull, &evalScratch{}); err == nil || !retryable {
		t.Fatalf("eval of a lost job: err=%v retryable=%v, want retryable 404", err, retryable)
	}
	// evalChunk re-initializes in full and evaluates exactly.
	ids := []int32{0, 1}
	records, _, err := c.evalChunk(ctx, w, j, ids, core.ModeFull, &evalScratch{})
	if err != nil {
		t.Fatalf("evalChunk: %v", err)
	}
	if len(records) != len(ids) {
		t.Fatalf("evalChunk returned %d of %d tiles", len(records), len(ids))
	}
	got := make([]tensor.Stress, len(fx.pts))
	for _, rec := range records {
		if err := tl.ScatterTileResult(rec.id, rec.vals, got); err != nil {
			t.Fatal(err)
		}
		for _, oi := range tl.TilePoints(int(rec.id)) {
			if got[oi] != fx.want[oi] {
				t.Fatalf("tile %d point %d diverges after re-init", rec.id, oi)
			}
		}
	}
	c.dropJob(j.id)
}
