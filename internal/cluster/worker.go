package cluster

//tsvlint:apiboundary

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/faultinject"
	"tsvstress/internal/geom"
	"tsvstress/internal/tensor"
)

// WorkerOptions configures a worker process.
type WorkerOptions struct {
	// MaxJobs bounds the number of evaluation states held in memory
	// (default 8); beyond it the least-recently-used job is evicted —
	// a coordinator that still needs it re-initializes transparently.
	MaxJobs int
	// Workers bounds the tile parallelism of one eval call (default
	// GOMAXPROCS). Benchmarks use it to pin a per-process core budget.
	Workers int
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.MaxJobs <= 0 {
		o.MaxJobs = 8
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Worker is the worker-side state: a table of initialized jobs. Mount
// Handler on an HTTP server (cmd/tsvworker does) to serve a
// coordinator.
type Worker struct {
	opt WorkerOptions

	mu   sync.Mutex
	jobs map[string]*workerJob
}

// workerJob is one initialized evaluation state: the analyzer and
// tiling rebuilt from a job spec, plus the destination buffer evals
// write into. Eval calls on one job serialize on its mutex (their dst
// slots may overlap under speculative re-execution); different jobs
// evaluate concurrently.
type workerJob struct {
	mu       sync.Mutex
	pts      []geom.Point
	tl       *core.Tiling
	an       *core.Analyzer
	dst      []tensor.Stress
	lastUsed time.Time
	// resultBuf is the reusable frameResultBatch encode buffer (under
	// mu, like dst); it stops growing once the job has answered its
	// largest chunk.
	resultBuf []byte
}

// NewWorker builds an empty worker.
func NewWorker(opt WorkerOptions) *Worker {
	return &Worker{opt: opt.withDefaults(), jobs: make(map[string]*workerJob)}
}

// NumJobs returns the number of initialized jobs.
func (w *Worker) NumJobs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.jobs)
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/ping", w.handlePing)
	mux.HandleFunc("POST /v1/cluster/jobs/{id}", w.handleInit)
	mux.HandleFunc("POST /v1/cluster/jobs/{id}/eval", w.handleEval)
	mux.HandleFunc("DELETE /v1/cluster/jobs/{id}", w.handleDrop)
	return mux
}

// pingResponse is the registration/heartbeat body: the coordinator
// records Cores at registration and refuses a Proto mismatch.
type pingResponse struct {
	Status string `json:"status"`
	Proto  int    `json:"proto"`
	Cores  int    `json:"cores"`
	Jobs   int    `json:"jobs"`
}

func (w *Worker) handlePing(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(pingResponse{
		Status: "ok",
		Proto:  protoVersion,
		Cores:  w.opt.Workers,
		Jobs:   w.NumJobs(),
	})
}

func workerError(rw http.ResponseWriter, status int, msg string) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": msg})
}

// handleInit builds a job. The body is a frame sequence: frameInit
// (JSON spec), framePlacement (TSV centers) and framePoints (the
// simulation points). Re-initializing a job the worker already holds is
// an idempotent replay (a retried init after a dropped response).
func (w *Worker) handleInit(rw http.ResponseWriter, r *http.Request) {
	if err := faultinject.Fire("cluster.worker.init"); err != nil {
		workerError(rw, http.StatusInternalServerError, "injected: "+err.Error())
		return
	}
	br := bufio.NewReader(r.Body)
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameInit {
		workerError(rw, http.StatusBadRequest, fmt.Sprintf("want init frame first (type %d, err %v)", typ, err))
		return
	}
	var spec jobSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		workerError(rw, http.StatusBadRequest, "job spec: "+err.Error())
		return
	}
	if err := spec.validate(); err != nil {
		workerError(rw, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if spec.Job != r.PathValue("id") {
		workerError(rw, http.StatusBadRequest, fmt.Sprintf("spec names job %q, path names %q", spec.Job, r.PathValue("id")))
		return
	}
	typ, payload, err = readFrame(br)
	if err != nil || typ != framePlacement {
		workerError(rw, http.StatusBadRequest, fmt.Sprintf("want placement frame (type %d, err %v)", typ, err))
		return
	}
	centers, err := decodePointsPayload(payload)
	if err != nil {
		workerError(rw, http.StatusBadRequest, err.Error())
		return
	}
	pl := geom.NewPlacement(centers...)

	typ, payload, err = readFrame(br)
	if err != nil || typ != framePoints {
		workerError(rw, http.StatusBadRequest, fmt.Sprintf("want points frame (type %d, err %v)", typ, err))
		return
	}
	pts, err := decodePointsPayload(payload)
	if err != nil {
		workerError(rw, http.StatusBadRequest, err.Error())
		return
	}

	ack, status, err := w.initJob(spec, pl, pts)
	if err != nil {
		workerError(rw, status, err.Error())
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(ack)
}

// initAck answers a successful init.
type initAck struct {
	Job       string `json:"job"`
	NumTiles  int    `json:"numTiles"`
	NumPoints int    `json:"numPoints"`
}

// initJob applies an init under the job table and job locks, returning
// the HTTP status to report on failure.
func (w *Worker) initJob(spec jobSpec, pl *geom.Placement, pts []geom.Point) (initAck, int, error) {
	if len(pts) != spec.NumPoints {
		return initAck{}, http.StatusUnprocessableEntity,
			fmt.Errorf("cluster: job %s ships %d points, spec says %d", spec.Job, len(pts), spec.NumPoints)
	}
	w.mu.Lock()
	job, exists := w.jobs[spec.Job]
	if !exists {
		job = &workerJob{}
		w.jobs[spec.Job] = job
		w.evictLocked(spec.Job)
	}
	job.lastUsed = time.Now()
	w.mu.Unlock()

	job.mu.Lock()
	defer job.mu.Unlock()
	if job.an != nil {
		// Idempotent replay: a job id always names the same spec.
		return initAck{Job: spec.Job, NumTiles: job.tl.NumTiles(), NumPoints: len(job.pts)}, 0, nil
	}
	opt := spec.Options.Resolved()
	opt.Workers = w.opt.Workers
	an, err := core.New(spec.Struct, pl, opt)
	if err != nil {
		return initAck{}, http.StatusUnprocessableEntity, err
	}
	tl, err := core.NewTiling(pts, spec.TileCutoff)
	if err != nil {
		return initAck{}, http.StatusUnprocessableEntity, err
	}
	if tl.NumTiles() != spec.NumTiles {
		return initAck{}, http.StatusUnprocessableEntity,
			fmt.Errorf("cluster: job %s tiling disagrees: worker built %d tiles, coordinator has %d", spec.Job, tl.NumTiles(), spec.NumTiles)
	}
	job.pts = pts
	job.tl = tl
	job.an = an
	job.dst = make([]tensor.Stress, len(pts))
	return initAck{Job: spec.Job, NumTiles: tl.NumTiles(), NumPoints: len(pts)}, 0, nil
}

// evictLocked drops least-recently-used jobs beyond MaxJobs, never the
// one just touched. Caller holds w.mu.
func (w *Worker) evictLocked(keep string) {
	for len(w.jobs) > w.opt.MaxJobs {
		type entry struct {
			id string
			at time.Time
		}
		victims := make([]entry, 0, len(w.jobs))
		for id, j := range w.jobs {
			if id != keep {
				victims = append(victims, entry{id, j.lastUsed})
			}
		}
		if len(victims) == 0 {
			return
		}
		sort.Slice(victims, func(i, k int) bool { return victims[i].at.Before(victims[k].at) })
		delete(w.jobs, victims[0].id)
	}
}

// handleEval evaluates an assignment's tiles and streams one
// frameResultBatch carrying every tile of the chunk, followed by
// frameDone. An unknown job is a 404 (the coordinator re-inits in full
// and retries); an evaluation failure after the 200 has been committed
// is reported in-stream as a frameError.
func (w *Worker) handleEval(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.mu.Lock()
	job, ok := w.jobs[id]
	if ok {
		job.lastUsed = time.Now()
	}
	w.mu.Unlock()
	if !ok {
		workerError(rw, http.StatusNotFound, fmt.Sprintf("cluster: job %s unknown; full init required", id))
		return
	}
	br := bufio.NewReader(r.Body)
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameAssign {
		workerError(rw, http.StatusBadRequest, fmt.Sprintf("want assignment frame (type %d, err %v)", typ, err))
		return
	}
	asn, err := decodeAssignPayload(payload)
	if err != nil {
		workerError(rw, http.StatusBadRequest, err.Error())
		return
	}

	job.mu.Lock()
	defer job.mu.Unlock()
	if job.an == nil {
		workerError(rw, http.StatusNotFound, fmt.Sprintf("cluster: job %s lost its state; full init required", id))
		return
	}
	// The test-only straggler/death drill: a Delay fault makes this
	// worker slow (stealable), an Err fault makes every eval fail.
	if err := faultinject.Fire("cluster.worker.eval"); err != nil {
		workerError(rw, http.StatusInternalServerError, "injected: "+err.Error())
		return
	}
	if err := job.an.EvalTiles(r.Context(), job.dst, job.pts, job.tl, asn.IDs, nil, asn.Mode); err != nil {
		// Before the first byte of the body the status line is still
		// ours to choose; report eval failures as a 500 so the
		// coordinator's retry logic sees one uniform shape.
		workerError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	bw := bufio.NewWriterSize(rw, 1<<16)
	// One batch frame for the whole chunk, encoded into the job's
	// reusable scratch (held under job.mu like the rest of the eval).
	job.resultBuf = appendResultBatchPayload(job.resultBuf[:0], job.tl, asn.IDs, job.dst)
	if err := writeFrame(bw, frameResultBatch, job.resultBuf); err != nil {
		return // client went away; nothing left to report to
	}
	// The partial-response drill: an armed fault ends the stream after
	// the batch frame but before frameDone, so the coordinator sees a
	// truncated result and must discard it and retry — never merge it.
	if err := faultinject.Fire("cluster.worker.partial"); err != nil {
		_ = bw.Flush()
		return
	}
	var done [4]byte
	binary.LittleEndian.PutUint32(done[:], uint32(len(asn.IDs)))
	if err := writeFrame(bw, frameDone, done[:]); err != nil {
		return
	}
	_ = bw.Flush()
}

func (w *Worker) handleDrop(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.mu.Lock()
	_, ok := w.jobs[id]
	delete(w.jobs, id)
	w.mu.Unlock()
	if !ok {
		workerError(rw, http.StatusNotFound, fmt.Sprintf("cluster: job %s unknown", id))
		return
	}
	rw.WriteHeader(http.StatusNoContent)
}
