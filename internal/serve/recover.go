package serve

//tsvlint:apiboundary

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/incr"
	"tsvstress/internal/material"
	"tsvstress/internal/wal"
)

// The WAL payload formats. All three are JSON so a human can inspect a
// journal with od + jq during an incident; the framing, CRC and
// torn-write handling live one layer down in internal/wal.
//
// metaRecord is the session's immutable birth certificate (the
// normalized create request). The simulation grid derives from the
// *initial* placement bounds and never changes afterwards, which is
// why recovery must rebuild it from meta rather than from a snapshot.
type metaRecord struct {
	TSVs    []TSVWire `json:"tsvs"`
	Liner   string    `json:"liner"`
	Mode    string    `json:"mode"`
	Spacing float64   `json:"spacing"`
	Margin  float64   `json:"margin"`
	MMax    int       `json:"mmax,omitempty"`
	Created time.Time `json:"created"`
}

// snapshotRecord is a placement checkpoint: the full TSV list at some
// journal sequence. Replay starts from here.
type snapshotRecord struct {
	TSVs []TSVWire `json:"tsvs"`
}

// journalRecord is one accepted edit batch, stored in wire form so
// recovery replays through the same decoder the live path used.
type journalRecord struct {
	Edits []EditWire `json:"edits"`
}

// wireTSVs converts a placement to its wire form (names included, so
// recovery reproduces them exactly).
func wireTSVs(pl *geom.Placement) []TSVWire {
	out := make([]TSVWire, 0, pl.Len())
	for _, t := range pl.TSVs {
		out = append(out, TSVWire{X: t.Center.X, Y: t.Center.Y, Name: t.Name})
	}
	return out
}

func placementFromWire(tsvs []TSVWire) *geom.Placement {
	pl := &geom.Placement{TSVs: make([]geom.TSV, 0, len(tsvs))}
	for _, t := range tsvs {
		pl.TSVs = append(pl.TSVs, geom.TSV{Center: geom.Pt(t.X, t.Y), Name: t.Name})
	}
	return pl
}

func marshalSnapshot(pl *geom.Placement) ([]byte, error) {
	return json.Marshal(snapshotRecord{TSVs: wireTSVs(pl)})
}

func marshalMeta(m metaRecord) ([]byte, error) { return json.Marshal(m) }

// parseSessionID extracts the numeric part of a "p<n>" session id.
func parseSessionID(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "p")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Recover rebuilds journaled sessions from Options.WALDir: for each
// session directory it opens the journal (truncating any torn tail),
// reconstructs the placement from the latest snapshot plus the edit
// batches journaled after it, rebuilds the engine and flushes, so the
// recovered field map equals the one a never-crashed server would
// serve (the chaos test pins the agreement at 1e-9 MPa).
//
// Recovery is best-effort per session: a directory whose meta or
// journal is unreadable is skipped (left on disk for forensics) and a
// session whose replay diverges is registered quarantined; both are
// reported in the joined error while every healthy session serves.
// Only ctx cancellation aborts recovery as a whole — readiness
// (/readyz) then stays false. Returns the number of sessions restored
// to service.
func (s *Server) Recover(ctx context.Context) (int, error) {
	if s.opt.WALDir == "" {
		s.ready.Store(true)
		return 0, nil
	}
	ids, err := wal.List(s.opt.WALDir)
	if err != nil {
		return 0, fmt.Errorf("serve: recover: %w", err)
	}
	recovered := 0
	maxID := 0
	var errs []error
	for _, id := range ids {
		// A leftover directory — even one too corrupt to recover —
		// still reserves its id, so a fresh session can never collide
		// with its journal.
		if n, ok := parseSessionID(id); ok && n > maxID {
			maxID = n
		}
		if err := ctx.Err(); err != nil {
			return recovered, fmt.Errorf("serve: recover aborted: %w", err)
		}
		ses, err := s.recoverSession(ctx, id)
		if err != nil {
			if errors.Is(err, core.ErrCanceled) || ctx.Err() != nil {
				return recovered, fmt.Errorf("serve: recover aborted in session %s: %w", id, err)
			}
			errs = append(errs, fmt.Errorf("session %s: %w", id, err))
			continue
		}
		s.mu.Lock()
		s.sessions[id] = ses
		registerSessionQueue(id)
		metricSessions.Set(int64(len(s.sessions)))
		if ses.quarantined != "" {
			errs = append(errs, fmt.Errorf("session %s quarantined: %s", id, ses.quarantined))
			metricQuarantined.Set(int64(s.quarantinedLocked()))
		} else {
			recovered++
			metricRecovered.Add(1)
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()
	s.ready.Store(true)
	return recovered, errors.Join(errs...)
}

// recoverSession rebuilds one session from its WAL directory. An error
// means the session could not be reconstructed at all (unreadable meta
// or journal, engine build failure); a replay divergence instead
// returns a quarantined session so the operator sees it in the list.
func (s *Server) recoverSession(ctx context.Context, id string) (*session, error) {
	log, rec, err := wal.Open(s.sessionDir(id))
	if err != nil {
		return nil, err
	}
	ses, err := s.buildSession(ctx, id, rec, log)
	if err != nil {
		_ = log.Close()
		return nil, err
	}
	return ses, nil
}

// buildSession reconstructs a session from recovered WAL state — the
// shared spine of crash recovery, cold-session hydration and bundle
// import (lifecycle.go). log may be nil (an import on a replica
// without durability). On error the caller owns closing log; on
// success the session owns it.
func (s *Server) buildSession(ctx context.Context, id string, rec *wal.Recovered, log *wal.Log) (*session, error) {
	var meta metaRecord
	if err := json.Unmarshal(rec.Meta, &meta); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	liner, linerName, err := parseLiner(meta.Liner)
	if err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	mode, modeName, err := parseMode(meta.Mode)
	if err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	st := material.Baseline(liner)
	initial := placementFromWire(meta.TSVs)
	grid, err := field.NewGrid(initial.Bounds(meta.Margin), meta.Spacing)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	base := initial
	if rec.Snapshot != nil {
		var snap snapshotRecord
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		base = placementFromWire(snap.TSVs)
	}
	engine, err := incr.New(ctx, st, base, grid.Points(), mode, core.Options{MMax: meta.MMax})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	ses := &session{
		id:      id,
		engine:  engine,
		st:      st,
		liner:   linerName,
		mode:    modeName,
		created: meta.Created,
		meta:    meta,
		log:     log,
	}
	// Replay the batches journaled after the snapshot. Every batch was
	// accepted (rehearsed) by the live path, so a failure here means
	// the journal and the engine disagree about validity — quarantine
	// rather than serve a placement that diverged from what clients
	// were told.
	for _, r := range rec.Records {
		var jr journalRecord
		if err := json.Unmarshal(r.Payload, &jr); err != nil {
			ses.quarantined = fmt.Sprintf("replay: record %d: %v", r.Seq, err)
			return ses, nil
		}
		for i, ew := range jr.Edits {
			ed, err := ew.toEdit()
			if err == nil {
				err = engine.Apply(ed)
			}
			if err != nil {
				ses.quarantined = fmt.Sprintf("replay: record %d edit %d: %v", r.Seq, i, err)
				return ses, nil
			}
		}
	}
	if _, err := engine.Flush(ctx); err != nil {
		if errors.Is(err, core.ErrCanceled) {
			return nil, err
		}
		ses.quarantined = "replay flush: " + err.Error()
		return ses, nil
	}
	return ses, nil
}
