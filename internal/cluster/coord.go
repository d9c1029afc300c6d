package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/faultinject"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/resilience"
	"tsvstress/internal/tensor"
)

// CoordinatorOptions configures the coordinator side.
type CoordinatorOptions struct {
	// HeartbeatEvery is the worker heartbeat interval (default 2s;
	// negative disables the background loop — tests drive pings
	// manually).
	HeartbeatEvery time.Duration
	// PingTimeout bounds one registration/heartbeat ping (default 2s).
	PingTimeout time.Duration
	// ChunksPerWorker is the work-queue granularity: the tile set is
	// split into alive-workers × ChunksPerWorker chunks (default 4).
	// More chunks → finer rebalancing, more RPCs.
	ChunksPerWorker int
	// InFlightPerWorker bounds concurrently outstanding eval RPCs per
	// worker (default 2: one evaluating, one pipelined behind it) —
	// the bounded in-flight budget stragglers are measured against.
	InFlightPerWorker int
	// MaxSpeculation bounds how many workers may evaluate the same
	// chunk concurrently when the pending queue is empty (default 2:
	// the owner plus one thief).
	MaxSpeculation int
	// Client is the HTTP client for worker RPCs (default a dedicated
	// client with sane connection pooling). Every eval and init RPC
	// additionally carries a deadline derived from its work size via
	// Resilience.Deadline.
	Client *http.Client
	// Resilience configures retry budgets, backoff, per-worker circuit
	// breakers and per-RPC deadline derivation (zero value = production
	// defaults; DESIGN.md §18).
	Resilience resilience.Config
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.HeartbeatEvery == 0 {
		o.HeartbeatEvery = 2 * time.Second
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 2 * time.Second
	}
	if o.ChunksPerWorker <= 0 {
		o.ChunksPerWorker = 4
	}
	if o.InFlightPerWorker <= 0 {
		o.InFlightPerWorker = 2
	}
	if o.MaxSpeculation <= 0 {
		o.MaxSpeculation = 2
	}
	o.Resilience = o.Resilience.WithDefaults()
	return o
}

// Stats is a snapshot of the coordinator's lifetime counters.
type Stats struct {
	// Maps counts completed cluster maps.
	Maps int64
	// Chunks counts chunk evaluations merged.
	Chunks int64
	// Steals counts speculative re-executions of an in-flight chunk by
	// an idle worker.
	Steals int64
	// Requeues counts chunks returned to the queue after a worker
	// failure.
	Requeues int64
	// WorkerFailures counts worker-dead transitions observed by the
	// scheduler or the heartbeat loop.
	WorkerFailures int64
	// Attempts counts eval RPC attempts: first tries, retries and
	// speculative duplicates alike.
	Attempts int64
	// Deadlined counts eval RPC attempts that carried a derived
	// deadline. Every attempt derives one, so this equals Attempts —
	// the chaos harness asserts the equality.
	Deadlined int64
	// Retries counts budget-consuming same-worker retry attempts.
	Retries int64
	// Timeouts counts eval attempts ended by their derived deadline
	// (not by the caller's own context).
	Timeouts int64
	// BudgetTokens is the retry budget's current balance.
	BudgetTokens float64
	// BudgetExhausted counts retries denied for lack of budget tokens.
	BudgetExhausted int64
	// BreakerOpens totals breaker trips across the per-worker breakers.
	BreakerOpens int64
	// Workers is the per-worker view: live at call time or, after
	// Close, the final snapshot taken when the heartbeat loop stopped —
	// the last-known liveness tests and the bench harness read.
	Workers []WorkerStatus
}

// WorkerStatus describes one registered worker.
type WorkerStatus struct {
	Addr     string
	Alive    bool
	Cores    int
	LastErr  string
	LastSeen time.Time
	// Attempts, Retries and Timeouts count this worker's eval RPCs:
	// total attempts, budget-consuming retries, and attempts ended by
	// their derived deadline.
	Attempts int64
	Retries  int64
	Timeouts int64
	// Breaker is the worker's breaker state; BreakerOpens counts its
	// trips.
	Breaker      string
	BreakerOpens int64
}

// workerRef is the coordinator's view of one worker process.
//
// Lock order: ensureInit holds initMu across the init RPC and briefly
// takes mu inside it to read and update the inited set; the reverse
// nesting is forbidden.
//
//tsvlint:lockorder workerRef.initMu < workerRef.mu
type workerRef struct {
	base string // http://host:port

	mu       sync.Mutex
	alive    bool
	everSeen bool
	cores    int
	lastSeen time.Time
	lastErr  error
	// inited is the set of job ids this worker holds. Cleared on a
	// dead→alive transition: a restarted process lost its jobs.
	inited map[string]struct{}

	// initMu serializes init RPCs to this worker so concurrent loop
	// goroutines do not ship the same points twice.
	initMu sync.Mutex

	// breaker gates eval RPCs and heartbeat probes to this worker;
	// attempts/retries/timeouts feed WorkerStatus and the expvar view.
	breaker  *resilience.Breaker
	attempts atomic.Int64
	retries  atomic.Int64
	timeouts atomic.Int64
}

// Coordinator shards tile evaluations across a fleet of workers. It is
// safe for concurrent use; one coordinator serves any number of
// concurrent Map calls.
type Coordinator struct {
	opt    CoordinatorOptions
	hc     *http.Client
	prefix string
	jobSeq atomic.Uint64

	workers []*workerRef

	stopOnce sync.Once
	stopCh   chan struct{}

	statMaps     atomic.Int64
	statChunks   atomic.Int64
	statSteals   atomic.Int64
	statRequeues atomic.Int64
	statDead     atomic.Int64

	statAttempts  atomic.Int64
	statDeadlined atomic.Int64
	statRetries   atomic.Int64
	statTimeouts  atomic.Int64

	// budget is the shared retry-token bucket (DESIGN.md §18).
	budget *resilience.Budget

	// finalWorkers is the per-worker snapshot taken by Close, so Stats
	// keeps answering with last-known worker state after shutdown.
	finalMu      sync.Mutex
	finalWorkers []WorkerStatus
}

// NewCoordinator builds a coordinator over the given worker addresses
// (host:port or full http:// URLs) and starts its heartbeat loop.
// Workers need not be up yet: the heartbeat registers them as they
// appear. Call Close to stop the loop.
func NewCoordinator(addrs []string, opt CoordinatorOptions) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	opt = opt.withDefaults()
	hc := opt.Client
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 2 * opt.InFlightPerWorker
		hc = &http.Client{Transport: tr}
	}
	var nonce [6]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("cluster: job nonce: %w", err)
	}
	c := &Coordinator{
		opt:    opt,
		hc:     hc,
		prefix: hex.EncodeToString(nonce[:]),
		stopCh: make(chan struct{}),
		budget: resilience.NewBudget(opt.Resilience.Budget),
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		base := a
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c.workers = append(c.workers, &workerRef{
			base:    strings.TrimRight(base, "/"),
			inited:  make(map[string]struct{}),
			breaker: resilience.NewBreaker(opt.Resilience.Breaker),
		})
	}
	if len(c.workers) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	if opt.HeartbeatEvery > 0 {
		go c.heartbeatLoop()
	}
	return c, nil
}

// Close stops the heartbeat loop and freezes the per-worker state into
// the snapshot Stats keeps returning afterwards. In-flight evaluations
// are unaffected (their contexts govern them).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		close(c.stopCh)
		final := c.Workers()
		c.finalMu.Lock()
		c.finalWorkers = final
		c.finalMu.Unlock()
	})
}

// Stats returns a snapshot of the lifetime counters. After Close the
// per-worker view is the final snapshot taken at shutdown.
func (c *Coordinator) Stats() Stats {
	c.finalMu.Lock()
	workers := c.finalWorkers
	c.finalMu.Unlock()
	if workers == nil {
		workers = c.Workers()
	}
	var opens int64
	for _, w := range workers {
		opens += w.BreakerOpens
	}
	return Stats{
		Maps:            c.statMaps.Load(),
		Chunks:          c.statChunks.Load(),
		Steals:          c.statSteals.Load(),
		Requeues:        c.statRequeues.Load(),
		WorkerFailures:  c.statDead.Load(),
		Attempts:        c.statAttempts.Load(),
		Deadlined:       c.statDeadlined.Load(),
		Retries:         c.statRetries.Load(),
		Timeouts:        c.statTimeouts.Load(),
		BudgetTokens:    c.budget.Tokens(),
		BudgetExhausted: c.budget.Exhausted(),
		BreakerOpens:    opens,
		Workers:         workers,
	}
}

// Workers returns the status of every configured worker.
func (c *Coordinator) Workers() []WorkerStatus {
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		w.mu.Lock()
		st := WorkerStatus{Addr: w.base, Alive: w.alive, Cores: w.cores, LastSeen: w.lastSeen}
		if w.lastErr != nil {
			st.LastErr = w.lastErr.Error()
		}
		w.mu.Unlock()
		st.Attempts = w.attempts.Load()
		st.Retries = w.retries.Load()
		st.Timeouts = w.timeouts.Load()
		st.Breaker = w.breaker.State().String()
		st.BreakerOpens = w.breaker.Opens()
		out = append(out, st)
	}
	return out
}

// NumAlive returns the number of workers currently believed alive.
func (c *Coordinator) NumAlive() int {
	n := 0
	for _, w := range c.workers {
		w.mu.Lock()
		if w.alive {
			n++
		}
		w.mu.Unlock()
	}
	return n
}

func (c *Coordinator) heartbeatLoop() {
	t := time.NewTicker(c.opt.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.pingAll(context.Background())
		}
	}
}

// Ping registers every reachable worker now and returns an error only
// when none answered — the fail-fast check callers run at startup.
func (c *Coordinator) Ping(ctx context.Context) error {
	c.pingAll(ctx)
	if c.NumAlive() == 0 {
		var errs []error
		for _, st := range c.Workers() {
			if st.LastErr != "" {
				errs = append(errs, fmt.Errorf("%s: %s", st.Addr, st.LastErr))
			}
		}
		return fmt.Errorf("cluster: no workers alive: %w", errors.Join(errs...))
	}
	return nil
}

func (c *Coordinator) pingAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerRef) {
			defer wg.Done()
			c.pingWorker(ctx, w)
		}(w)
	}
	wg.Wait()
}

// pingWorker performs one registration/heartbeat ping and updates the
// worker's liveness. A dead→alive transition clears the worker's
// init ledger: a restarted process lost its jobs, so every job must be
// re-shipped in full before its next eval.
func (c *Coordinator) pingWorker(ctx context.Context, w *workerRef) {
	// A tripped breaker dampens flapping: the worker sits out the
	// cool-down, then one probe ping decides whether it rejoins.
	if !w.breaker.Allow() {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, c.opt.PingTimeout)
	defer cancel()
	if err := faultinject.Fire("cluster.coord.ping"); err != nil {
		w.breaker.OnFailure()
		c.markDead(w, err)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/cluster/ping", nil)
	if err != nil {
		w.breaker.OnFailure()
		c.markDead(w, err)
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		w.breaker.OnFailure()
		c.markDead(w, err)
		return
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	var pr pingResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		w.breaker.OnFailure()
		c.markDead(w, fmt.Errorf("ping decode: %w", err))
		return
	}
	if pr.Proto != protoVersion {
		w.breaker.OnFailure()
		c.markDead(w, fmt.Errorf("protocol mismatch: worker speaks v%d, coordinator v%d", pr.Proto, protoVersion))
		return
	}
	w.breaker.OnSuccess()
	w.mu.Lock()
	if !w.alive {
		// (Re)registration: assume any previous job state is gone.
		w.inited = make(map[string]struct{})
	}
	w.alive = true
	w.everSeen = true
	w.cores = pr.Cores
	w.lastSeen = time.Now()
	w.lastErr = nil
	w.mu.Unlock()
}

// markDead transitions a worker to dead, counting only real
// transitions.
func (c *Coordinator) markDead(w *workerRef, cause error) {
	w.mu.Lock()
	was := w.alive
	w.alive = false
	w.lastErr = cause
	w.mu.Unlock()
	if was {
		c.statDead.Add(1)
	}
}

// ---- job plumbing ----

// job is the coordinator-side description of one evaluation state.
type job struct {
	id   string
	spec jobSpec
	pl   *geom.Placement
	pts  []geom.Point
}

func (c *Coordinator) newJobID(kind string) string {
	return fmt.Sprintf("%s-%s%d", c.prefix, kind, c.jobSeq.Add(1))
}

// Map evaluates the selected field at every point across the cluster —
// the distributed twin of core.Analyzer.MapInto for a one-shot
// placement. Results are identical to the single-process path (the
// parity tests pin ≤1e-9 MPa; in practice bit-for-bit). The placement
// is cloned; pts is captured for the duration of the call.
func (c *Coordinator) Map(ctx context.Context, dst []tensor.Stress, st material.Structure, pl *geom.Placement, pts []geom.Point, mode core.Mode, opt core.Options) error {
	if len(dst) != len(pts) {
		return fmt.Errorf("cluster: dst has %d slots for %d points", len(dst), len(pts))
	}
	if len(pts) == 0 {
		return nil
	}
	opt = opt.Resolved()
	cutoff := opt.GatherCutoff(mode)
	tl, err := core.NewTiling(pts, cutoff)
	if err != nil {
		return err
	}
	if err := pl.Validate(2 * st.RPrime); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	j := &job{
		id:  c.newJobID("m"),
		pl:  pl.Clone(),
		pts: pts,
	}
	j.spec = jobSpec{
		Job:        j.id,
		Struct:     st,
		Options:    opt,
		Mode:       mode,
		TileCutoff: cutoff,
		NumTiles:   tl.NumTiles(),
		NumPoints:  len(pts),
	}
	defer c.dropJob(j.id)
	return c.eval(ctx, j, dst, tl, tl.Partition(1)[0], mode)
}

// dropJob best-effort deletes a finished job from every worker that
// holds it, freeing worker memory early (eviction would reclaim it
// eventually).
func (c *Coordinator) dropJob(id string) {
	for _, w := range c.workers {
		w.mu.Lock()
		_, has := w.inited[id]
		delete(w.inited, id)
		alive := w.alive
		w.mu.Unlock()
		if !has || !alive {
			continue
		}
		go func(base string) {
			ctx, cancel := context.WithTimeout(context.Background(), c.opt.PingTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/cluster/jobs/"+id, nil)
			if err != nil {
				return
			}
			if resp, err := c.hc.Do(req); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}(w.base)
	}
}

// ---- the chunk scheduler ----

// sched is the shared work queue of one eval: chunks move pending →
// in-flight → done, with failed chunks requeued and stragglers'
// chunks speculatively duplicated. All transitions happen under mu;
// merging into dst happens under mu too, so duplicate completions can
// never race on the destination.
type sched struct {
	mu   sync.Mutex
	cond *sync.Cond

	chunks   [][]int32
	running  []int // concurrent executors per chunk
	done     []bool
	pending  []int // chunk indices with running == 0 && !done
	nDone    int
	tileDone int
	canceled bool
	maxSpec  int
	// doneCh closes when every chunk has merged, so the evaluation can
	// abort straggler duplicates still in flight.
	doneCh chan struct{}
}

func newSched(chunks [][]int32, maxSpec int) *sched {
	s := &sched{
		chunks:  chunks,
		running: make([]int, len(chunks)),
		done:    make([]bool, len(chunks)),
		pending: make([]int, 0, len(chunks)),
		maxSpec: maxSpec,
		doneCh:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := len(chunks) - 1; i >= 0; i-- {
		s.pending = append(s.pending, i)
	}
	return s
}

// next blocks until a chunk is available (pending, or in-flight and
// worth duplicating), all work is done, or the run is canceled. The
// second return reports whether the caller got work; stolen reports
// whether the chunk is a speculative duplicate of an in-flight one.
func (s *sched) next() (chunk int, ok, stolen bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.canceled || s.nDone == len(s.chunks) {
			return 0, false, false
		}
		if n := len(s.pending); n > 0 {
			chunk = s.pending[n-1]
			s.pending = s.pending[:n-1]
			s.running[chunk]++
			return chunk, true, false
		}
		// Queue drained: speculate on the least-duplicated in-flight
		// chunk — the straggler hedge.
		best := -1
		for i := range s.chunks {
			if s.done[i] || s.running[i] == 0 || s.running[i] >= s.maxSpec {
				continue
			}
			if best == -1 || s.running[i] < s.running[best] {
				best = i
			}
		}
		if best >= 0 {
			s.running[best]++
			return best, true, true
		}
		s.cond.Wait()
	}
}

// finish reports a completed execution of chunk. The first completion
// merges (inside the lock — duplicates must not race the scatter) and
// marks the chunk done; later duplicates are dropped. merge runs only
// for the winner.
func (s *sched) finish(chunk int, merge func() error) (first bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running[chunk]--
	if s.done[chunk] {
		s.cond.Broadcast()
		return false, nil
	}
	if err := merge(); err != nil {
		// A merge failure (malformed worker payload) is an execution
		// failure: requeue unless another executor still runs it.
		if s.running[chunk] == 0 {
			s.pending = append(s.pending, chunk)
		}
		s.cond.Broadcast()
		return false, err
	}
	s.done[chunk] = true
	s.nDone++
	s.tileDone += len(s.chunks[chunk])
	if s.nDone == len(s.chunks) {
		close(s.doneCh)
	}
	s.cond.Broadcast()
	return true, nil
}

// fail reports a failed execution: the chunk returns to the queue
// unless a duplicate still runs it or it already completed.
func (s *sched) fail(chunk int) (requeued bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running[chunk]--
	if !s.done[chunk] && s.running[chunk] == 0 {
		s.pending = append(s.pending, chunk)
		requeued = true
	}
	s.cond.Broadcast()
	return requeued
}

func (s *sched) cancel() {
	s.mu.Lock()
	s.canceled = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *sched) progress() (chunksDone, tilesDone int, complete bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nDone, s.tileDone, s.nDone == len(s.chunks)
}

// eval shards ids across the alive workers and merges tile results
// into dst. It returns nil only when every chunk merged; a canceled
// context yields a *core.CancelError (matching core.ErrCanceled) with
// tile-level progress, and a cluster-wide failure (every worker dead)
// reports the per-worker causes.
func (c *Coordinator) eval(ctx context.Context, j *job, dst []tensor.Stress, tl *core.Tiling, ids []int32, mode core.Mode) error {
	if len(ids) == 0 {
		return nil
	}
	live := c.liveWorkers(ctx)
	if len(live) == 0 {
		return fmt.Errorf("cluster: no workers alive for job %s", j.id)
	}
	chunks := chunkIDs(ids, len(live)*c.opt.ChunksPerWorker)
	s := newSched(chunks, c.opt.MaxSpeculation)

	evalCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	watcherDone := make(chan struct{})
	go func() {
		// Wake sched waiters on cancellation, and abort straggler
		// duplicate RPCs the moment every chunk has merged.
		defer close(watcherDone)
		select {
		case <-evalCtx.Done():
			s.cancel()
		case <-s.doneCh:
			cancel()
		}
	}()

	var wg sync.WaitGroup
	errsMu := sync.Mutex{}
	var workerErrs []error
	for _, w := range live {
		for slot := 0; slot < c.opt.InFlightPerWorker; slot++ {
			wg.Add(1)
			go func(w *workerRef) {
				defer wg.Done()
				if err := c.workerLoop(evalCtx, w, j, s, tl, dst, mode); err != nil {
					errsMu.Lock()
					workerErrs = append(workerErrs, fmt.Errorf("%s: %w", w.base, err))
					errsMu.Unlock()
				}
			}(w)
		}
	}
	wg.Wait()
	cancel()
	<-watcherDone

	_, tilesDone, complete := s.progress()
	if complete {
		c.statMaps.Add(1)
		return nil
	}
	if ctx.Err() != nil {
		return &core.CancelError{TilesDone: tilesDone, TilesTotal: len(ids), Cause: ctx.Err()}
	}
	errsMu.Lock()
	joined := errors.Join(workerErrs...)
	errsMu.Unlock()
	return fmt.Errorf("cluster: job %s incomplete (%d of %d tiles merged): %w", j.id, tilesDone, len(ids), joined)
}

// liveWorkers snapshots the alive workers, running one synchronous
// registration round first if no worker has ever been seen (covers
// coordinators used immediately after construction).
func (c *Coordinator) liveWorkers(ctx context.Context) []*workerRef {
	anySeen := false
	for _, w := range c.workers {
		w.mu.Lock()
		if w.everSeen {
			anySeen = true
		}
		w.mu.Unlock()
	}
	if !anySeen {
		c.pingAll(ctx)
	}
	live := c.aliveUntripped()
	if live == nil {
		// Nobody alive by heartbeat state: try once more synchronously —
		// the fleet may have just come up.
		c.pingAll(ctx)
		live = c.aliveUntripped()
	}
	return live
}

// aliveUntripped selects the workers that are alive and whose breakers
// are not cooling down. Tripped() is the non-mutating check: scheduler
// filtering must not consume the breaker's half-open probe slots, which
// are reserved for heartbeat pings.
func (c *Coordinator) aliveUntripped() []*workerRef {
	var live []*workerRef
	for _, w := range c.workers {
		w.mu.Lock()
		ok := w.alive
		w.mu.Unlock()
		if ok && !w.breaker.Tripped() {
			live = append(live, w)
		}
	}
	return live
}

// workerLoop drains the scheduler against one worker until the work is
// done, the run is canceled, or the worker fails. A worker failure
// requeues the in-flight chunk and ends the loop; the error describes
// the failure (nil when the loop ends because the work is done).
func (c *Coordinator) workerLoop(ctx context.Context, w *workerRef, j *job, s *sched, tl *core.Tiling, dst []tensor.Stress, mode core.Mode) error {
	// One decode scratch per loop: each chunk's records are merged into
	// dst before the next chunk overwrites the buffers, so the loop's
	// steady state performs no per-chunk allocation.
	sc := &evalScratch{}
	for {
		chunk, ok, stolen := s.next()
		if !ok {
			return nil
		}
		if stolen {
			c.statSteals.Add(1)
		}
		records, failed, err := c.evalChunk(ctx, w, j, s.chunks[chunk], mode, sc)
		if err != nil {
			if s.fail(chunk) {
				c.statRequeues.Add(1)
			}
			// A worker that genuinely failed is marked dead even when the
			// run's context has since been canceled — completion cancels
			// stragglers, and a steal finishing the map must not erase the
			// observation that this worker died under it. A cancellation
			// with no observed failure says nothing about the worker.
			if failed {
				c.markDead(w, err)
			}
			if ctx.Err() != nil {
				return nil // canceled: the map outcome, not this loop, decides
			}
			return err
		}
		first, mergeErr := s.finish(chunk, func() error {
			for _, rec := range records {
				if err := tl.ScatterTileResult(rec.id, rec.vals, dst); err != nil {
					return err
				}
			}
			return nil
		})
		if mergeErr != nil {
			c.markDead(w, mergeErr)
			return mergeErr
		}
		if first {
			c.statChunks.Add(1)
		}
	}
}

// evalScratch is one worker loop's reusable decode state: the frame
// payload buffer, the decoded-values slab every record's vals alias,
// and the record list itself. A chunk's records must be consumed before
// the next evalRPC reuses the buffers.
type evalScratch struct {
	frame   []byte
	slab    []tensor.Stress
	records []tileRecord
}

// realiasRecords repairs records' vals slices after the decode slab
// reallocated: every record's values occupy a contiguous prefix-ordered
// span of the slab (they were appended in decode order), so the aliases
// rebuild from the lengths alone.
func realiasRecords(records []tileRecord, slab []tensor.Stress) {
	base := 0
	for i := range records {
		n := len(records[i].vals)
		records[i].vals = slab[base : base+n]
		base += n
	}
}

// evalChunk evaluates ids on w under the resilience policy: up to
// MaxAttempts tries, each retry paid for from the shared token budget
// and spaced by deterministic backoff, cut short when the worker's
// breaker trips mid-sequence. The returned records alias sc's buffers.
// failed reports whether any attempt failed while the run was still
// live (as opposed to exits caused purely by ctx cancellation), so the
// caller can tell a dead worker from a canceled straggler.
func (c *Coordinator) evalChunk(ctx context.Context, w *workerRef, j *job, ids []int32, mode core.Mode, sc *evalScratch) (records []tileRecord, failed bool, err error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		records, err := c.evalChunkAttempt(ctx, w, j, ids, mode, sc)
		if err == nil {
			w.breaker.OnSuccess()
			c.budget.OnSuccess()
			return records, failed, nil
		}
		if ctx.Err() != nil {
			return nil, failed, err
		}
		failed = true
		w.breaker.OnFailure()
		lastErr = err
		if attempt >= c.opt.Resilience.MaxAttempts {
			return nil, failed, lastErr
		}
		if w.breaker.Tripped() {
			return nil, failed, fmt.Errorf("worker breaker open: %w", lastErr)
		}
		if !c.budget.TryRetry() {
			return nil, failed, fmt.Errorf("retry budget exhausted: %w", lastErr)
		}
		c.statRetries.Add(1)
		w.retries.Add(1)
		if err := sleepCtx(ctx, c.opt.Resilience.Backoff.Next(attempt)); err != nil {
			return nil, failed, err
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// evalChunkAttempt is one try: it transparently initializes the
// worker's copy of the job when the worker does not hold it.
func (c *Coordinator) evalChunkAttempt(ctx context.Context, w *workerRef, j *job, ids []int32, mode core.Mode, sc *evalScratch) ([]tileRecord, error) {
	if err := c.ensureInit(ctx, w, j); err != nil {
		return nil, err
	}
	records, retryable, err := c.evalRPC(ctx, w, j, ids, mode, sc)
	if err != nil && retryable && ctx.Err() == nil {
		// 404: the worker lost the job between our ledger check and the
		// eval (eviction, restart). Re-ship in full and retry once.
		w.mu.Lock()
		delete(w.inited, j.id)
		w.mu.Unlock()
		if err := c.ensureInit(ctx, w, j); err != nil {
			return nil, err
		}
		records, _, err = c.evalRPC(ctx, w, j, ids, mode, sc)
	}
	return records, err
}

// ensureInit ships the job to w unless the coordinator's ledger says
// the worker already holds it. Inits to one worker are serialized so
// two loop goroutines never ship the point set twice.
func (c *Coordinator) ensureInit(ctx context.Context, w *workerRef, j *job) error {
	if w.holds(j.id) {
		return nil
	}
	w.initMu.Lock()
	defer w.initMu.Unlock()
	if w.holds(j.id) {
		return nil
	}
	if err := c.initRPC(ctx, w, j); err != nil {
		return err
	}
	w.mu.Lock()
	w.inited[j.id] = struct{}{}
	w.mu.Unlock()
	return nil
}

// holds reports whether the ledger says w holds job id.
func (w *workerRef) holds(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.inited[id]
	return ok
}

// statusError is an HTTP-level worker failure.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("worker answered %d: %s", e.code, e.msg) }

// isRetryableStatus reports a 404: the worker does not hold the job.
func isRetryableStatus(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusNotFound
}

// initRPC performs one init POST: spec, placement and point set.
func (c *Coordinator) initRPC(ctx context.Context, w *workerRef, j *job) error {
	// Init cost scales with the shipped point blocks.
	ctx, cancel := context.WithTimeout(ctx, c.opt.Resilience.Deadline.For(j.spec.NumPoints/128))
	defer cancel()
	if err := faultinject.Fire("cluster.coord.init"); err != nil {
		return err
	}
	specBytes, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	body := appendFrame(nil, frameInit, specBytes)
	body = appendFrame(body, framePlacement, appendPointsPayload(nil, j.pl.Centers()))
	body = appendFrame(body, framePoints, appendPointsPayload(nil, j.pts))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/cluster/jobs/"+j.id, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, msg: readWorkerError(resp.Body)}
	}
	var ack initAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return fmt.Errorf("init ack: %w", err)
	}
	if ack.NumTiles != j.spec.NumTiles || ack.NumPoints != j.spec.NumPoints {
		return fmt.Errorf("init ack disagrees: worker built %d tiles/%d points, want %d/%d",
			ack.NumTiles, ack.NumPoints, j.spec.NumTiles, j.spec.NumPoints)
	}
	return nil
}

// evalRPC performs one eval POST and decodes the result stream.
// retryable reports a 404 (job missing on the worker). The returned
// records alias sc's reusable buffers and are valid until its next use.
func (c *Coordinator) evalRPC(ctx context.Context, w *workerRef, j *job, ids []int32, mode core.Mode, sc *evalScratch) (records []tileRecord, retryable bool, err error) {
	// Every attempt carries a deadline derived from its tile count, so a
	// hung worker cannot stall the chunk past its work-sized budget.
	parent := ctx
	ctx, cancel := context.WithTimeout(ctx, c.opt.Resilience.Deadline.For(len(ids)))
	defer cancel()
	c.statAttempts.Add(1)
	w.attempts.Add(1)
	c.statDeadlined.Add(1)
	// Registered after cancel so it runs before it: an error whose
	// deadline expired while the caller's own context is still live is a
	// derived-deadline timeout, not a cancellation.
	defer func() {
		if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) && parent.Err() == nil {
			c.statTimeouts.Add(1)
			w.timeouts.Add(1)
		}
	}()
	if err := faultinject.Fire("cluster.coord.eval"); err != nil {
		return nil, false, err
	}
	body := appendFrame(nil, frameAssign, appendAssignPayload(nil, assignment{Mode: mode, IDs: ids}))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/cluster/jobs/"+j.id+"/eval", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		se := &statusError{code: resp.StatusCode, msg: readWorkerError(resp.Body)}
		return nil, isRetryableStatus(se), se
	}
	records, err = sc.readResults(bufio.NewReaderSize(resp.Body, 1<<16), len(ids))
	return records, false, err
}

// readResults decodes an eval result stream of frameResultBatch frames
// closed by frameDone, requiring want tiles in total. Any other frame
// type fails the stream.
func (sc *evalScratch) readResults(br *bufio.Reader, want int) ([]tileRecord, error) {
	records := sc.records[:0]
	slab := sc.slab[:0]
	for {
		var typ byte
		var payload []byte
		var err error
		typ, payload, sc.frame, err = readFrameInto(br, sc.frame)
		if err != nil {
			return nil, fmt.Errorf("result stream: %w", err)
		}
		switch typ {
		case frameResultBatch:
			oldCap := cap(slab)
			records, slab, err = decodeResultBatch(payload, records, slab)
			if err != nil {
				return nil, err
			}
			if cap(slab) != oldCap {
				realiasRecords(records, slab)
			}
		case frameDone:
			if len(records) != want {
				return nil, fmt.Errorf("worker returned %d of %d tiles", len(records), want)
			}
			sc.records, sc.slab = records, slab
			return records, nil
		case frameError:
			return nil, fmt.Errorf("worker eval failed: %s", payload)
		default:
			return nil, fmt.Errorf("unexpected frame type %d in result stream", typ)
		}
	}
}

// readWorkerError extracts the JSON error body a worker handler wrote.
func readWorkerError(r io.Reader) string {
	var e struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(r, 1<<14))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// chunkIDs splits ids into up to n contiguous, balanced, non-empty
// chunks (the scheduler's work unit) via the deterministic partition
// function.
func chunkIDs(ids []int32, n int) [][]int32 {
	parts := core.PartitionTiles(len(ids), n)
	chunks := make([][]int32, 0, len(parts))
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		chunk := make([]int32, len(p))
		for i, pos := range p {
			chunk[i] = ids[pos]
		}
		chunks = append(chunks, chunk)
	}
	return chunks
}
