package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"tsvstress/internal/cluster"
	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/incr"
	"tsvstress/internal/serve"
	"tsvstress/internal/tensor"
	"tsvstress/internal/wal"
)

// The ladder replays one session's operations sequentially, first
// directly against core, then through incr, the WAL, an in-process
// serve handler, a replica over loopback and the gateway. The gap
// between adjacent rungs for the same operation is the upper rung's
// own cost.
const (
	ladderBatches = 8  // edit batches replayed on every rung, each followed by a map read
	valueReads    = 4  // map?values=1 reads per serving rung
	walAppends    = 32 // journal appends timed by the WAL probe
	walSnapEvery  = 8  // appends between timed WAL snapshots, as tsvserve's default
	hopReads      = 10 // map reads through the gateway and direct, each
)

// ladderInput is what a workload hands the ladder: a session to create,
// edit batches legal in order against its placement, and the points
// the core and cluster rungs map (nil: the session's grid).
type ladderInput struct {
	req   serve.CreateRequest
	pts   []geom.Point
	edits [][]serve.EditWire
}

// drawBatches draws ladderBatches edit batches of 1–3 edits against a
// copy of pl.
func drawBatches(rng *rand.Rand, pl *geom.Placement, batch func(*rand.Rand, *geom.Placement, int) []serve.EditWire) [][]serve.EditWire {
	mirror := pl.Clone()
	out := make([][]serve.EditWire, ladderBatches)
	for i := range out {
		out[i] = batch(rng, mirror, 1+i%3)
	}
	return out
}

// agingProbe and the screen call's ntheta=24 keep a 1000-TSV session's
// screen and aging calls within the run budget.
var agingProbe = mustJSON(serve.AgingRequest{DTSeconds: 1e7, MaxTimeSeconds: 1e8, NTheta: 24, Top: 5, Workers: 1})

// runLadder runs every rung and stores the per-layer metrics in res.
func runLadder(ctx context.Context, cfg config, in ladderInput, topo *topology, tr *tracer, res *runResult) error {
	root := tr.begin("ladder", -1, -1)
	defer tr.end(root)
	pl := placementOf(in.req.TSVs)
	grid, err := field.NewGrid(pl.Bounds(in.req.Margin), in.req.Spacing)
	if err != nil {
		return err
	}
	pts := in.pts
	if pts == nil {
		pts = grid.Points()
	}
	m := res.layer
	if err := coreRung(ctx, pl, pts, tr, root, m); err != nil {
		return fmt.Errorf("core rung: %w", err)
	}
	if err := clusterRung(ctx, pl, pts, tr, root, m); err != nil {
		return fmt.Errorf("cluster rung: %w", err)
	}
	if err := incrRung(ctx, pl, grid.Points(), in.edits, tr, root, m); err != nil {
		return fmt.Errorf("incr rung: %w", err)
	}
	if err := walRung(cfg.runDir("walprobe"), in, tr, root, m); err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}

	srv := serve.NewServer(serve.Options{WALDir: cfg.runDir("inproc-wal"), MaxSessions: 64})
	if _, err := srv.Recover(ctx); err != nil {
		return err
	}
	defer srv.Close(ctx)
	h := srv.Handler()
	inproc := func(method, path string, body []byte) (int, []byte) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		return rec.Code, rec.Body.Bytes()
	}
	serveMs, err := servingRung("serve", inproc, in, tr, root, nil)
	if err != nil {
		return err
	}
	replicaMs, err := servingRung("replica", remote(topo.replicas[0].url), in, tr, root, nil)
	if err != nil {
		return err
	}
	var hop float64
	measureHop := func(id string) (err error) {
		hop, err = gatewayHop(topo, id, tr, root)
		return err
	}
	if _, err := servingRung("gateway", remote(topo.gate.url), in, tr, root, measureHop); err != nil {
		return err
	}
	for route, v := range serveMs {
		m["serve."+route+"_ms"] = v
		m["replica."+route+"_ms"] = replicaMs[route]
	}
	m["serve.self_edits_ms"] = serveMs["edits"] - m["incr.flush_p50_ms"] - m["wal.append_p50_ms"]
	m["gateway.hop_ms"] = hop
	return nil
}

// timeMs runs fn inside a span and returns its wall time in ms.
func timeMs(tr *tracer, name string, parent, op int, fn func() error) (float64, error) {
	id := tr.begin(name, parent, op)
	defer tr.end(id)
	t0 := time.Now()
	err := fn()
	return ms(time.Since(t0)), err
}

// repeatMs runs fn reps times, each inside a span, and returns the
// times in ascending ms.
func repeatMs(tr *tracer, name string, parent, reps int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := timeMs(tr, name, parent, i, fn)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	sort.Float64s(out)
	return out, nil
}

// coreRung times the analyzer build and whole-grid maps in both modes,
// at the default parallelism and at one worker.
func coreRung(ctx context.Context, pl *geom.Placement, pts []geom.Point, tr *tracer, root int, m map[string]float64) error {
	rung := tr.begin("rung:core", root, -1)
	defer tr.end(rung)
	var an *core.Analyzer
	newMs, err := repeatMs(tr, "core.New", rung, 3, func() (err error) {
		an, err = core.New(structure, pl, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	dst := make([]tensor.Stress, len(pts))
	nsPerPt := func(an *core.Analyzer, mode core.Mode, name string, reps int) (float64, error) {
		if err := an.MapInto(ctx, dst, pts, mode); err != nil { // warm-up
			return 0, err
		}
		v, err := repeatMs(tr, name, rung, reps, func() error { return an.MapInto(ctx, dst, pts, mode) })
		return median(v) * 1e6 / float64(len(pts)), err
	}
	ls, err := nsPerPt(an, core.ModeLS, "core.MapInto:ls", 5)
	if err != nil {
		return err
	}
	full, err := nsPerPt(an, core.ModeFull, "core.MapInto:full", 3)
	if err != nil {
		return err
	}
	an1, err := core.New(structure, pl, core.Options{Workers: 1})
	if err != nil {
		return err
	}
	full1, err := nsPerPt(an1, core.ModeFull, "core.MapInto:full:w1", 2)
	if err != nil {
		return err
	}
	entries, hits := an.Model.CoeffCacheStats()
	m["core.new_ms"] = median(newMs)
	m["core.ls_ns_per_pt"] = ls
	m["core.full_ns_per_pt"] = full
	m["core.stage2_over_ls"] = (full - ls) / ls
	m["core.scaling_eff"] = full1 / full / float64(an.Options().Workers)
	m["core.pair_rounds"] = float64(an.NumPairRounds())
	m["core.coeff_cache_entries"] = float64(entries)
	m["core.coeff_cache_hits"] = float64(hits)
	return nil
}

// clusterRung times the same Full map through a coordinator over
// NumCPU loopback workers.
func clusterRung(ctx context.Context, pl *geom.Placement, pts []geom.Point, tr *tracer, root int, m map[string]float64) error {
	rung := tr.begin("rung:cluster", root, -1)
	defer tr.end(rung)
	lw, err := cluster.StartLocalWorkers(runtime.NumCPU(), cluster.WorkerOptions{})
	if err != nil {
		return err
	}
	defer lw.Stop()
	co, err := cluster.NewCoordinator(lw.Addrs(), cluster.CoordinatorOptions{})
	if err != nil {
		return err
	}
	defer co.Close()
	if err := co.Ping(ctx); err != nil {
		return err
	}
	dst := make([]tensor.Stress, len(pts))
	fullMap := func() error { return co.Map(ctx, dst, structure, pl, pts, core.ModeFull, core.Options{}) }
	if err := fullMap(); err != nil { // warm-up
		return err
	}
	v, err := repeatMs(tr, "cluster.Map", rung, 2, fullMap)
	if err != nil {
		return err
	}
	st := co.Stats()
	m["cluster.full_ms"] = median(v)
	m["cluster.vs_inproc"] = median(v) / (m["core.full_ns_per_pt"] * float64(len(pts)) / 1e6)
	m["cluster.steals"] = float64(st.Steals)
	m["cluster.retries"] = float64(st.Retries)
	return nil
}

// incrRung builds an incremental engine over the session grid and
// replays the edit batches, timing each flush and, after it, a direct
// Analyzer.Rebuild with the same index map.
func incrRung(ctx context.Context, pl *geom.Placement, pts []geom.Point, batches [][]serve.EditWire, tr *tracer, root int, m map[string]float64) error {
	rung := tr.begin("rung:incr", root, -1)
	defer tr.end(rung)
	var eng *incr.Engine
	newMs, err := repeatMs(tr, "incr.New", rung, 2, func() (err error) {
		eng, err = incr.New(ctx, structure, pl, pts, core.ModeFull, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	var flushMs, rebuildMs, dirty []float64
	for b, batch := range batches {
		before := eng.Analyzer()
		// prev maps a new TSV index to its index in the last flushed
		// placement, or -1 for an added or moved TSV: the map the
		// engine itself rebuilds with.
		prev := make([]int, eng.NumTSVs())
		for j := range prev {
			prev[j] = j
		}
		for _, ew := range batch {
			ed := editOf(ew)
			if err := eng.Apply(ed); err != nil {
				return err
			}
			switch ed.Op {
			case geom.EditAdd:
				prev = append(prev, -1)
			case geom.EditRemove:
				prev = append(prev[:ed.Index], prev[ed.Index+1:]...)
			case geom.EditMove:
				prev[ed.Index] = -1
			}
		}
		after := eng.Placement()
		flush, err := timeMs(tr, "incr.Flush", rung, b, func() error { _, err := eng.Flush(ctx); return err })
		if err != nil {
			return err
		}
		rebuild, err := timeMs(tr, "core.Rebuild", rung, b, func() error {
			_, err := before.Rebuild(after, func(j int) int { return prev[j] })
			return err
		})
		if err != nil {
			return err
		}
		flushMs = append(flushMs, flush)
		rebuildMs = append(rebuildMs, rebuild)
		dirty = append(dirty, eng.Stats().LastDirtyRatio)
	}
	sort.Float64s(flushMs)
	m["incr.new_ms"] = median(newMs)
	m["incr.flush_p50_ms"] = quantile(flushMs, 0.5)
	m["incr.flush_p95_ms"] = quantile(flushMs, 0.95)
	m["incr.rebuild_ms"] = median(rebuildMs)
	m["incr.flush_eval_ms"] = quantile(flushMs, 0.5) - median(rebuildMs)
	m["incr.dirty_ratio"] = median(dirty)
	return nil
}

// walRung journals the edit batches into a fresh session directory,
// snapshots it every few appends, then exports and rehydrates it. The
// directory sits next to the replicas' WALs, on the same file system.
func walRung(dir string, in ladderInput, tr *tracer, root int, m map[string]float64) error {
	rung := tr.begin("rung:wal", root, -1)
	defer tr.end(rung)
	src := filepath.Join(dir, "session")
	log, err := wal.Create(src, mustJSON(in.req))
	if err != nil {
		return err
	}
	defer log.Close() // the success path closes it first and checks
	snapshot := mustJSON(in.req.TSVs)
	var appendMs, snapMs []float64
	for i := 0; i < walAppends; i++ {
		payload := mustJSON(serve.EditsRequest{Edits: in.edits[i%len(in.edits)]})
		d, err := timeMs(tr, "wal.Append", rung, i, func() error { _, err := log.Append(payload); return err })
		if err != nil {
			return err
		}
		appendMs = append(appendMs, d)
		if (i+1)%walSnapEvery == 0 {
			d, err := timeMs(tr, "wal.Snapshot", rung, i, func() error { return log.Snapshot(snapshot) })
			if err != nil {
				return err
			}
			snapMs = append(snapMs, d)
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	var bundle *wal.Bundle
	exportMs, err := repeatMs(tr, "wal.Export", rung, 3, func() (err error) {
		bundle, err = wal.Export(src)
		return err
	})
	if err != nil {
		return err
	}
	copies := 0
	rehydrateMs, err := repeatMs(tr, "wal.Rehydrate", rung, 3, func() error {
		copies++
		return wal.Rehydrate(filepath.Join(dir, "copy"+strconv.Itoa(copies)), bundle)
	})
	if err != nil {
		return err
	}
	sort.Float64s(appendMs)
	sort.Float64s(snapMs)
	m["wal.append_p50_ms"] = quantile(appendMs, 0.5)
	m["wal.append_p99_ms"] = quantile(appendMs, 0.99)
	m["wal.snapshot_p50_ms"] = quantile(snapMs, 0.5)
	m["wal.snapshot_p95_ms"] = quantile(snapMs, 0.95)
	m["wal.export_ms"] = median(exportMs)
	m["wal.rehydrate_ms"] = median(rehydrateMs)
	m["wal.bundle_kb"] = float64(len(wal.EncodeBundle(bundle))) / 1024
	return nil
}

// doer sends one request to a serving rung and returns its status and
// body.
type doer func(method, path string, body []byte) (int, []byte)

// remote is the doer of a server over one loopback connection.
func remote(base string) doer {
	c := newConnClient()
	return func(method, path string, body []byte) (int, []byte) {
		o, raw := doRaw(context.Background(), c, method, base+path, body)
		if o.err != nil {
			return 0, []byte(o.err.Error())
		}
		return o.status, raw
	}
}

// servingRung replays the ladder script through do — create, each edit
// batch followed by a map read, full-field reads, a screen, an aging
// run and a delete — and returns the median milliseconds per route.
// afterCreate, when set, runs on the new session before it is edited.
func servingRung(name string, do doer, in ladderInput, tr *tracer, root int, afterCreate func(id string) error) (map[string]float64, error) {
	rung := tr.begin("rung:"+name, root, -1)
	defer tr.end(rung)
	times := make(map[string][]float64)
	call := func(route, method, path string, body []byte, want int) (out []byte, err error) {
		d, err := timeMs(tr, name+"."+route, rung, len(times[route]), func() error {
			var status int
			if status, out = do(method, path, body); status != want {
				return fmt.Errorf("%s rung: %s %s: status %d: %s", name, method, path, status, truncate(out))
			}
			return nil
		})
		times[route] = append(times[route], d)
		return out, err
	}
	out, err := call("create", http.MethodPost, "/v1/placements", mustJSON(in.req), http.StatusCreated)
	if err != nil {
		return nil, err
	}
	var cr serve.CreateResponse
	if err := json.Unmarshal(out, &cr); err != nil {
		return nil, err
	}
	if afterCreate != nil {
		if err := afterCreate(cr.ID); err != nil {
			return nil, err
		}
	}
	base := "/v1/placements/" + cr.ID
	for _, batch := range in.edits {
		if _, err := call("edits", http.MethodPost, base+"/edits", mustJSON(serve.EditsRequest{Edits: batch}), http.StatusOK); err != nil {
			return nil, err
		}
		if _, err := call("map", http.MethodGet, base+"/map?component=vm", nil, http.StatusOK); err != nil {
			return nil, err
		}
	}
	for i := 0; i < valueReads; i++ {
		if _, err := call("map_values", http.MethodGet, base+"/map?component=vm&values=1", nil, http.StatusOK); err != nil {
			return nil, err
		}
	}
	if _, err := call("screen", http.MethodGet, base+"/screen?ntheta=24", nil, http.StatusOK); err != nil {
		return nil, err
	}
	if _, err := call("aging", http.MethodPost, base+"/aging", agingProbe, http.StatusOK); err != nil {
		return nil, err
	}
	if _, err := call("delete", http.MethodDelete, base, nil, http.StatusNoContent); err != nil {
		return nil, err
	}
	med := make(map[string]float64, len(times))
	for route, v := range times {
		med[route] = median(v)
	}
	return med, nil
}

// gatewayHop reads one session's map summary alternately through the
// gateway and directly from its owner, and returns the difference of
// the medians.
func gatewayHop(topo *topology, id string, tr *tracer, root int) (float64, error) {
	owner := topo.owner(id)
	if owner < 0 {
		return 0, fmt.Errorf("session %s is in no replica's WAL", id)
	}
	path := "/v1/placements/" + id + "/map?component=vm"
	sides := []struct {
		name string
		do   doer
		ms   []float64
	}{{name: "hop.gateway", do: remote(topo.gate.url)}, {name: "hop.direct", do: remote(topo.replicas[owner].url)}}
	for i := 0; i < hopReads; i++ {
		for k := range sides {
			s := &sides[k]
			d, err := timeMs(tr, s.name, root, i, func() error {
				if status, out := s.do(http.MethodGet, path, nil); status != http.StatusOK {
					return fmt.Errorf("%s read: status %d: %s", s.name, status, truncate(out))
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
			s.ms = append(s.ms, d)
		}
	}
	return median(sides[0].ms) - median(sides[1].ms), nil
}

// editOf converts a wire edit to a placement edit.
func editOf(ew serve.EditWire) geom.Edit {
	t := geom.TSV{Center: geom.Pt(ew.X, ew.Y)}
	switch ew.Op {
	case "add":
		return geom.Edit{Op: geom.EditAdd, TSV: t}
	case "remove":
		return geom.Edit{Op: geom.EditRemove, Index: ew.Index}
	default:
		return geom.Edit{Op: geom.EditMove, Index: ew.Index, TSV: t}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own plain structs are encoded
	}
	return b
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
