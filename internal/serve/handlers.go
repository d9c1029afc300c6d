package serve

//tsvlint:apiboundary

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/faultinject"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/incr"
	"tsvstress/internal/material"
	"tsvstress/internal/mobility"
	"tsvstress/internal/reliability"
	"tsvstress/internal/tensor"
	"tsvstress/internal/wal"
)

// ---- wire types ----

// TSVWire is one via in a request or response body (coordinates in µm).
type TSVWire struct {
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Name string  `json:"name,omitempty"`
}

// CreateRequest is the POST /v1/placements body.
type CreateRequest struct {
	// TSVs is the initial placement (required, coordinates in µm).
	TSVs []TSVWire `json:"tsvs"`
	// Liner selects the baseline structure: "bcb" (default) or "sio2".
	Liner string `json:"liner,omitempty"`
	// Mode pins the session's evaluation mode: "full" (default), "ls"
	// or "interactive".
	Mode string `json:"mode,omitempty"`
	// Spacing is the simulation-grid spacing in µm (default 1).
	Spacing float64 `json:"spacing,omitempty"`
	// Margin extends the grid beyond the placement bounds in µm
	// (default 5).
	Margin float64 `json:"margin,omitempty"`
	// MMax overrides the Stage II series truncation (default 10).
	MMax int `json:"mmax,omitempty"`
}

// CreateResponse answers POST /v1/placements.
type CreateResponse struct {
	ID        string  `json:"id"`
	NumTSVs   int     `json:"numTSVs"`
	NumPoints int     `json:"numPoints"`
	NumTiles  int     `json:"numTiles"`
	Mode      string  `json:"mode"`
	Liner     string  `json:"liner"`
	BuildMs   float64 `json:"buildMs"`
}

// SessionInfo is one entry of GET /v1/placements.
type SessionInfo struct {
	ID        string    `json:"id"`
	NumTSVs   int       `json:"numTSVs"`
	NumPoints int       `json:"numPoints"`
	Mode      string    `json:"mode"`
	Liner     string    `json:"liner"`
	Pending   int       `json:"pendingEdits"`
	Created   time.Time `json:"created"`
	// Quarantined is the non-empty reason this session refuses compute
	// requests (contained panic or durability failure).
	Quarantined string `json:"quarantined,omitempty"`
	// Evicted marks a session whose engine was released to disk; the
	// next compute request rehydrates it from its WAL.
	Evicted bool `json:"evicted,omitempty"`
}

// EditWire is one placement edit: op "add" (x, y, optional name),
// "remove" (index) or "move" (index, x, y, optional name).
type EditWire struct {
	Op    string  `json:"op"`
	Index int     `json:"index,omitempty"`
	X     float64 `json:"x,omitempty"`
	Y     float64 `json:"y,omitempty"`
	Name  string  `json:"name,omitempty"`
}

// EditsRequest is the POST /v1/placements/{id}/edits body. The batch is
// atomic: either every edit validates and applies, or none does.
type EditsRequest struct {
	Edits []EditWire `json:"edits"`
}

// EditsResponse answers an edit batch with the incremental-flush cost:
// DirtyRatio is the share of the session's points the flush
// re-evaluated, and DirtyTiles of the session's TotalTiles tiles held
// them.
type EditsResponse struct {
	Applied    int     `json:"applied"`
	NumTSVs    int     `json:"numTSVs"`
	DirtyTiles int     `json:"dirtyTiles"`
	TotalTiles int     `json:"totalTiles"`
	DirtyRatio float64 `json:"dirtyRatio"`
	FlushMs    float64 `json:"flushMs"`
}

// MapResponse answers GET /v1/placements/{id}/map (format=json).
type MapResponse struct {
	ID        string     `json:"id"`
	Mode      string     `json:"mode"`
	Component string     `json:"component"`
	NumPoints int        `json:"numPoints"`
	Min       float64    `json:"min"`
	Max       float64    `json:"max"`
	Mean      float64    `json:"mean"`
	MinAt     [2]float64 `json:"minAt"`
	MaxAt     [2]float64 `json:"maxAt"`
	FlushMs   float64    `json:"flushMs"`
	// Values is the per-point component field in grid order, present
	// only with ?values=1.
	Values []float64 `json:"values,omitempty"`
}

// ScreenTSV is one via's reliability/mobility summary.
type ScreenTSV struct {
	Index           int     `json:"index"`
	X               float64 `json:"x"`
	Y               float64 `json:"y"`
	Name            string  `json:"name,omitempty"`
	MaxTension      float64 `json:"maxTensionMPa"`
	MaxTensionTheta float64 `json:"maxTensionTheta"`
	MaxShear        float64 `json:"maxShearMPa"`
	MaxVonMises     float64 `json:"maxVonMisesMPa"`
	WorstShiftNMOS  float64 `json:"worstShiftNMOS"`
	WorstShiftPMOS  float64 `json:"worstShiftPMOS"`
}

// ScreenResponse answers GET /v1/placements/{id}/screen: TSVs ranked by
// worst interfacial tension, plus the structure's keep-out radii.
type ScreenResponse struct {
	ID      string  `json:"id"`
	NumTSVs int     `json:"numTSVs"`
	NTheta  int     `json:"nTheta"`
	KOZTol  float64 `json:"kozTol"`
	// KOZNMOS/KOZPMOS are the single-TSV keep-out radii in µm at KOZTol.
	KOZNMOS float64 `json:"kozNMOSum"`
	KOZPMOS float64 `json:"kozPMOSum"`
	// AboveThreshold counts TSVs whose MaxTension exceeds ?threshold
	// (present only when the parameter is given).
	Threshold      *float64    `json:"thresholdMPa,omitempty"`
	AboveThreshold int         `json:"aboveThreshold,omitempty"`
	FlushMs        float64     `json:"flushMs"`
	TSVs           []ScreenTSV `json:"tsvs"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func parseLiner(name string) (material.Material, string, error) {
	switch strings.ToLower(name) {
	case "", "bcb":
		return material.BCB, "bcb", nil
	case "sio2":
		return material.SiO2, "sio2", nil
	default:
		return material.Material{}, "", fmt.Errorf("unknown liner %q (want bcb or sio2)", name)
	}
}

func parseMode(name string) (core.Mode, string, error) {
	switch strings.ToLower(name) {
	case "", "full":
		return core.ModeFull, "full", nil
	case "ls":
		return core.ModeLS, "ls", nil
	case "interactive":
		return core.ModeInteractive, "interactive", nil
	default:
		return 0, "", fmt.Errorf("unknown mode %q (want full, ls or interactive)", name)
	}
}

// queryFloat parses an optional finite float query parameter.
func queryFloat(r *http.Request, key string, def float64) (float64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parameter %s=%q is not a finite number", key, s)
	}
	return v, nil
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", key, s)
	}
	return v, nil
}

func (ed EditWire) toEdit() (geom.Edit, error) {
	t := geom.TSV{Center: geom.Pt(ed.X, ed.Y), Name: ed.Name}
	switch strings.ToLower(ed.Op) {
	case "add":
		return geom.Edit{Op: geom.EditAdd, TSV: t}, nil
	case "remove":
		return geom.Edit{Op: geom.EditRemove, Index: ed.Index}, nil
	case "move":
		return geom.Edit{Op: geom.EditMove, Index: ed.Index, TSV: t}, nil
	default:
		return geom.Edit{}, fmt.Errorf("unknown op %q (want add, remove or move)", ed.Op)
	}
}

// decodeEdits decodes and validates an edit-batch body, returning both
// the typed edits and the wire form (the latter is what the WAL
// journals, so replay goes through this same decoder). It never
// panics on malformed input — the fuzz target pins that.
func decodeEdits(r io.Reader) ([]geom.Edit, []EditWire, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req EditsRequest
	if err := dec.Decode(&req); err != nil {
		return nil, nil, fmt.Errorf("invalid JSON body: %w", err)
	}
	if len(req.Edits) == 0 {
		return nil, nil, errors.New("empty edit batch")
	}
	edits := make([]geom.Edit, 0, len(req.Edits))
	for i, ew := range req.Edits {
		ed, err := ew.toEdit()
		if err != nil {
			return nil, nil, fmt.Errorf("edit %d: %w", i, err)
		}
		edits = append(edits, ed)
	}
	return edits, req.Edits, nil
}

// flushLocked flushes pending work (caller holds ses.mu) and publishes
// the flush metrics, returning the elapsed milliseconds. Under
// admission-queue pressure a full-mode session degrades to a Stage-I
// flush (see Engine.FlushDegraded); the response then carries the
// degradation header and the owed full-mode pass runs on the next
// un-pressured request.
func (s *Server) flushLocked(ctx context.Context, ses *session) (float64, error) {
	if !ses.engine.NeedsFlush() {
		return 0, nil
	}
	start := time.Now()
	var err error
	if s.shedding() && ses.engine.Mode() == core.ModeFull {
		_, err = ses.engine.FlushDegraded(ctx)
	} else {
		_, err = ses.engine.Flush(ctx)
	}
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	recordFlush(ses.engine.Stats(), elapsed)
	if ses.engine.Degraded() {
		metricDegraded.Add(1)
	}
	return float64(elapsed) / float64(time.Millisecond), nil
}

// setDegradedHeader marks a response whose field values are (partly)
// Stage-I-only because load shedding degraded the flush, with a
// Retry-After hint telling the client when the queue should have
// drained enough for a full-accuracy retry. Caller holds ses.mu.
func (s *Server) setDegradedHeader(w http.ResponseWriter, ses *session) {
	if ses.engine.Degraded() {
		w.Header().Set("X-Tsvserve-Degraded", "full->ls")
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
}

// writeComputeError maps an engine failure to its HTTP shape: a
// contained kernel panic quarantines the session (500), a cooperative
// cancellation is a 504 with partial-progress detail, anything else is
// a plain 500.
func (s *Server) writeComputeError(w http.ResponseWriter, id, op string, err error) {
	var pe *core.PanicError
	var ce *core.CancelError
	switch {
	case errors.As(err, &pe):
		metricPanics.Add(1)
		s.quarantine(id, fmt.Sprintf("%s: contained kernel panic: %v", op, pe.Value))
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("%s: kernel panic contained; placement %q quarantined: %v", op, id, pe.Value))
	case errors.As(err, &ce):
		writeError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("%s: evaluation canceled after %d of %d tiles: %v", op, ce.TilesDone, ce.TilesTotal, ce.Cause))
	case errors.Is(err, core.ErrCanceled):
		writeError(w, http.StatusGatewayTimeout, op+": "+err.Error())
	default:
		writeError(w, http.StatusInternalServerError, op+": "+err.Error())
	}
}

// ---- handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"sessions":    s.NumSessions(),
		"quarantined": s.quarantinedCount(),
	})
}

// handleReady reports whether the service should receive traffic:
// recovery must have completed and the admission queue must be below
// the shedding depth. Load balancers poll this; /healthz stays 200 as
// long as the process lives.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	waiting := int(admitWaiting.Load())
	switch {
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering"})
	case waiting >= s.opt.ShedQueueDepth:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "overloaded", "waiting": waiting, "shedDepth": s.opt.ShedQueueDepth})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready", "waiting": waiting, "sessions": s.NumSessions()})
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req CreateRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if len(req.TSVs) == 0 {
		writeError(w, http.StatusBadRequest, "placement has no TSVs")
		return
	}
	if len(req.TSVs) > s.opt.MaxTSVs {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("placement has %d TSVs, limit is %d", len(req.TSVs), s.opt.MaxTSVs))
		return
	}
	liner, linerName, err := parseLiner(req.Liner)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	mode, modeName, err := parseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	spacing := req.Spacing
	if spacing == 0 {
		spacing = 1
	}
	margin := req.Margin
	if margin == 0 {
		margin = 5
	}
	pl := &geom.Placement{TSVs: make([]geom.TSV, 0, len(req.TSVs))}
	for i, t := range req.TSVs {
		name := t.Name
		if name == "" {
			name = "V" + strconv.Itoa(i)
		}
		pl.TSVs = append(pl.TSVs, geom.TSV{Center: geom.Pt(t.X, t.Y), Name: name})
	}
	st := material.Baseline(liner)
	grid, err := field.NewGrid(pl.Bounds(margin), spacing)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if grid.Len() > s.opt.MaxPoints {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("grid has %d points (spacing %g over %gx%g µm), limit is %d — coarsen the spacing",
				grid.Len(), spacing, grid.Region.W(), grid.Region.H(), s.opt.MaxPoints))
		return
	}
	start := time.Now()
	engine, err := incr.New(r.Context(), st, pl, grid.Points(), mode, core.Options{MMax: req.MMax})
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			writeError(w, http.StatusGatewayTimeout, "create: initial evaluation canceled: "+err.Error())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	ses := &session{engine: engine, st: st, liner: linerName, mode: modeName, created: time.Now()}
	// The meta record lives on the session even without a WAL: it is
	// what export synthesizes a bundle from, and the grid derives from
	// the *initial* placement bounds, so it must survive verbatim.
	ses.meta = metaRecord{
		TSVs:    wireTSVs(pl),
		Liner:   linerName,
		Mode:    modeName,
		Spacing: spacing,
		Margin:  margin,
		MMax:    req.MMax,
		Created: ses.created,
	}
	// The gateway mints session ids so routing stays a pure function of
	// the id; a bare client lets the server number the session.
	id, err := s.reserveID(r.Header.Get("X-Tsvgate-Session"))
	if err != nil {
		var taken *idTakenError
		var invalid *invalidIDError
		switch {
		case errors.As(err, &taken):
			writeError(w, http.StatusConflict, err.Error())
		case errors.As(err, &invalid):
			writeError(w, http.StatusUnprocessableEntity, err.Error())
		default:
			// The slot frees only when a client DELETEs a placement; the
			// queue-derived interval is still the best polling hint we have.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, err.Error())
		}
		return
	}
	// Open the journal before the session is published: a session that
	// requests can observe must never exist without an open log, or an
	// edit batch could be acknowledged in the window where it would not
	// be journaled — durability the client was promised but never had.
	if s.opt.WALDir != "" {
		meta, err := marshalMeta(ses.meta)
		if err == nil {
			ses.log, err = wal.Create(s.sessionDir(id), meta)
		}
		if err != nil {
			s.unreserve()
			_ = wal.Remove(s.sessionDir(id))
			writeError(w, http.StatusInternalServerError, "create: journal init failed: "+err.Error())
			return
		}
	}
	s.ensureLiveCapacity(1)
	s.publishSession(id, ses)
	writeJSON(w, http.StatusCreated, CreateResponse{
		ID:        id,
		NumTSVs:   engine.NumTSVs(),
		NumPoints: engine.NumPoints(),
		NumTiles:  engine.Stats().TotalTiles,
		Mode:      modeName,
		Liner:     linerName,
		BuildMs:   float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// Snapshot the table under s.mu and read each session's engine only
	// after s.mu is released: compute handlers acquire s.mu (quarantine)
	// while holding ses.mu, so nesting s.mu→ses.mu here would be an
	// ABBA deadlock. The quarantined reason is s.mu-guarded, so capture
	// it during the snapshot.
	type listEntry struct {
		ses         *session
		quarantined string
	}
	s.mu.Lock()
	entries := make([]listEntry, 0, len(s.sessions))
	for _, ses := range s.sessions {
		entries = append(entries, listEntry{ses: ses, quarantined: ses.quarantined})
	}
	evictedIDs := make([]string, 0, len(s.evicted))
	for id := range s.evicted {
		evictedIDs = append(evictedIDs, id)
	}
	s.mu.Unlock()
	infos := make([]SessionInfo, 0, len(entries)+len(evictedIDs))
	for _, e := range entries {
		ses := e.ses
		ses.mu.Lock()
		if ses.evicted {
			// Lost a race with the LRU sweep: the engine is gone. The id
			// will reappear below on a later list; skip it rather than
			// dereference a released engine.
			ses.mu.Unlock()
			continue
		}
		infos = append(infos, SessionInfo{
			ID:          ses.id,
			NumTSVs:     ses.engine.NumTSVs(),
			NumPoints:   ses.engine.NumPoints(),
			Mode:        ses.mode,
			Liner:       ses.liner,
			Pending:     ses.engine.Pending(),
			Created:     ses.created,
			Quarantined: e.quarantined,
		})
		ses.mu.Unlock()
	}
	for _, id := range evictedIDs {
		infos = append(infos, SessionInfo{ID: id, Evicted: true})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"placements": infos})
}

func (s *Server) handleEdits(w http.ResponseWriter, r *http.Request) {
	ses, unlock, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer unlock()
	edits, wires, err := decodeEdits(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := r.Context().Err(); err != nil {
		writeError(w, http.StatusRequestTimeout, "request expired waiting for the session: "+err.Error())
		return
	}
	// Atomic batch: rehearse every edit on a throwaway clone first, so a
	// failure in edit k never leaves edits 0..k-1 half-applied.
	probe := ses.engine.Placement()
	minPitch := 2 * ses.st.RPrime
	for i, ed := range edits {
		if err := ed.Apply(probe, minPitch); err != nil {
			writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("edit %d: %v", i, err))
			return
		}
	}
	if probe.Len() > s.opt.MaxTSVs {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("batch grows the placement to %d TSVs, limit is %d", probe.Len(), s.opt.MaxTSVs))
		return
	}
	// Journal before apply: once the batch reaches the engine its edits
	// are acknowledged to the client, so they must already be durable.
	// A journal failure quarantines the session — its on-disk state no
	// longer matches what the client will be told.
	if ses.log != nil {
		payload, err := json.Marshal(journalRecord{Edits: wires})
		if err == nil {
			_, err = ses.log.Append(payload)
		}
		if err != nil {
			metricWALErrors.Add(1)
			s.quarantine(ses.id, "edit journal append failed: "+err.Error())
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("durability failure; placement %q quarantined: %v", ses.id, err))
			return
		}
		metricWALAppends.Add(1)
	}
	for i, ed := range edits {
		// The rehearsal accepted the batch, so each apply must succeed;
		// a failure here is an engine/validator divergence — and the
		// batch is already journaled, so the engine now holds a partial
		// application that recovery would replay in full. Quarantine,
		// mirroring the WAL-append failure path, instead of serving
		// state that diverges from the journal.
		if err := ses.engine.Apply(ed); err != nil {
			reason := fmt.Sprintf("edit %d failed after validation (engine diverged from journal): %v", i, err)
			s.quarantine(ses.id, reason)
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("%s; placement %q quarantined", reason, ses.id))
			return
		}
	}
	metricEdits.Add(int64(len(edits)))
	// The batch is journaled and applied, so it counts toward snapshot
	// cadence now, whatever the flush below does — a canceled flush
	// must not drift the cadence for a batch that is already durable.
	if ses.log != nil {
		ses.batchesSinceSnap++
	}
	flushMs, err := s.flushLocked(r.Context(), ses)
	if err != nil {
		// The edits themselves are accepted (journaled and applied);
		// only the map evaluation failed. Say so in the op, or a
		// timed-out client would resubmit and double-apply the batch.
		s.writeComputeError(w, ses.id, "flush (edit batch already accepted; do not resubmit)", err)
		return
	}
	// Snapshot every SnapshotEvery accepted batches to bound journal
	// length and recovery replay time. A snapshot failure is not fatal:
	// the journal still holds every batch since the last good snapshot.
	if ses.log != nil && ses.batchesSinceSnap >= s.opt.SnapshotEvery {
		if payload, err := marshalSnapshot(ses.engine.Placement()); err == nil {
			if err := ses.log.Snapshot(payload); err == nil {
				ses.batchesSinceSnap = 0
				metricSnapshots.Add(1)
			} else {
				metricWALErrors.Add(1)
			}
		}
	}
	s.setDegradedHeader(w, ses)
	st := ses.engine.Stats()
	writeJSON(w, http.StatusOK, EditsResponse{
		Applied:    len(edits),
		NumTSVs:    ses.engine.NumTSVs(),
		DirtyTiles: st.LastDirtyTiles,
		TotalTiles: st.TotalTiles,
		DirtyRatio: st.LastDirtyRatio,
		FlushMs:    flushMs,
	})
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	ses, unlock, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer unlock()
	// Test-only drill for the panic-recovery middleware (one atomic
	// load when unarmed): arming this site with a Panic fault simulates
	// a handler bug escaping to withRecovery.
	_ = faultinject.Fire("serve.map.handler")
	q := r.URL.Query()
	component := q.Get("component")
	if component == "" {
		component = "vm"
	}
	if _, err := (tensor.Stress{}).Component(component); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if m := q.Get("mode"); m != "" {
		if _, name, err := parseMode(m); err != nil || name != ses.mode {
			writeError(w, http.StatusConflict,
				fmt.Sprintf("session %s is pinned to mode %q; create a separate placement for mode %q", ses.id, ses.mode, m))
			return
		}
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	includeValues := q.Get("values") == "1" || q.Get("values") == "true"

	flushMs, err := s.flushLocked(r.Context(), ses)
	if err != nil {
		s.writeComputeError(w, ses.id, "flush", err)
		return
	}
	s.setDegradedHeader(w, ses)
	pts, vals := ses.engine.Points(), ses.engine.Values()

	switch format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		cols := strings.Split(component, ",")
		if err := field.WriteCSV(w, pts, map[string][]tensor.Stress{"stress": vals}, cols); err != nil {
			// Headers are gone; the truncated body is the best signal left.
			return
		}
	case "json":
		resp := MapResponse{
			ID:        ses.id,
			Mode:      ses.mode,
			Component: component,
			NumPoints: len(pts),
			FlushMs:   flushMs,
		}
		sum := 0.0
		minI, maxI := 0, 0
		for i := range vals {
			v, _ := vals[i].Component(component)
			sum += v
			if cur, _ := vals[minI].Component(component); v < cur {
				minI = i
			}
			if cur, _ := vals[maxI].Component(component); v > cur {
				maxI = i
			}
			if includeValues {
				resp.Values = append(resp.Values, v)
			}
		}
		minV, _ := vals[minI].Component(component)
		maxV, _ := vals[maxI].Component(component)
		resp.Min, resp.Max, resp.Mean = minV, maxV, sum/float64(len(vals))
		resp.MinAt = [2]float64{pts[minI].X, pts[minI].Y}
		resp.MaxAt = [2]float64{pts[maxI].X, pts[maxI].Y}
		writeJSON(w, http.StatusOK, resp)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want json or csv)", format))
	}
}

func (s *Server) handleScreen(w http.ResponseWriter, r *http.Request) {
	ses, unlock, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer unlock()
	nTheta, err := queryInt(r, "ntheta", 72)
	if err != nil || nTheta < 4 || nTheta > 1024 {
		writeError(w, http.StatusBadRequest, "ntheta must be an integer in [4, 1024]")
		return
	}
	top, err := queryInt(r, "top", 20)
	if err != nil || top < 0 {
		writeError(w, http.StatusBadRequest, "top must be a non-negative integer (0 = all)")
		return
	}
	kozTol, err := queryFloat(r, "koztol", 0.01)
	if err != nil || kozTol <= 0 {
		writeError(w, http.StatusBadRequest, "koztol must be a positive finite number")
		return
	}
	var threshold *float64
	if r.URL.Query().Get("threshold") != "" {
		v, err := queryFloat(r, "threshold", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		threshold = &v
	}

	flushMs, err := s.flushLocked(r.Context(), ses)
	if err != nil {
		s.writeComputeError(w, ses.id, "flush", err)
		return
	}
	s.setDegradedHeader(w, ses)
	an := ses.engine.Analyzer()
	var eval reliability.Evaluator
	switch ses.engine.Mode() {
	case core.ModeLS:
		eval = an.StressLS
	case core.ModeInteractive:
		eval = an.Interactive
	default:
		eval = an.StressAt
	}
	reports, err := reliability.Screen(ses.engine.Placement(), ses.st,
		eval, reliability.Options{NTheta: nTheta})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "screen: "+err.Error())
		return
	}
	ranked := reliability.RankByTension(reports)

	resp := ScreenResponse{
		ID:      ses.id,
		NumTSVs: len(reports),
		NTheta:  nTheta,
		KOZTol:  kozTol,
		KOZNMOS: mobility.KeepOutRadius(an.Model.Lame, mobility.Default110(mobility.NMOS), kozTol),
		KOZPMOS: mobility.KeepOutRadius(an.Model.Lame, mobility.Default110(mobility.PMOS), kozTol),
		FlushMs: flushMs,
	}
	if threshold != nil {
		resp.Threshold = threshold
		resp.AboveThreshold = reliability.CountAbove(reports, *threshold)
	}
	limit := len(ranked)
	if top > 0 && top < limit {
		limit = top
	}
	pl := ses.engine.Placement()
	stresses := make([]tensor.Stress, nTheta)
	for _, rep := range ranked[:limit] {
		for k, smp := range rep.Samples {
			stresses[k] = smp.Stress
		}
		nShift, _ := mobility.WorstCaseOver(stresses, mobility.Default110(mobility.NMOS))
		pShift, _ := mobility.WorstCaseOver(stresses, mobility.Default110(mobility.PMOS))
		resp.TSVs = append(resp.TSVs, ScreenTSV{
			Index:           rep.Index,
			X:               rep.Center.X,
			Y:               rep.Center.Y,
			Name:            pl.TSVs[rep.Index].Name,
			MaxTension:      rep.MaxTension,
			MaxTensionTheta: rep.MaxTensionTheta,
			MaxShear:        rep.MaxShear,
			MaxVonMises:     rep.MaxVonMises,
			WorstShiftNMOS:  nShift,
			WorstShiftPMOS:  pShift,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.dropSession(id) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown placement %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
