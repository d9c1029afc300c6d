package serve

//tsvlint:apiboundary

// Session lifecycle beyond create/delete: cold-session eviction and
// rehydration (the horizontal tier's answer to "millions of sessions,
// finite RAM") and the export/import pair the gateway uses to ship a
// session between replicas via its WAL (DESIGN.md §19).
//
// Eviction: when Options.MaxLiveSessions is exceeded, the least-
// recently-flushed durable session is checkpointed (final snapshot),
// its journal closed and its engine released; only the id survives in
// Server.evicted. The next request for it rebuilds the engine from the
// WAL through the same checkpoint-and-replay path crash recovery uses,
// so an evicted-and-hydrated session cannot diverge from one that
// never left memory.
//
// Export/import: GET …/{id}/export serializes the session's WAL
// directory into a wal.Bundle (a no-WAL session synthesizes meta +
// current-placement snapshot); POST …/{id}/import rehydrates a shipped
// bundle as a new session. export?fence=1 additionally marks the
// session migrating, refusing further compute here so the gateway can
// ship-then-delete without a lost-update window.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"tsvstress/internal/wal"
)

// acquireSession resolves the request's session — hydrating it from
// its WAL if it was evicted — and returns it locked. A session evicted
// between resolution and locking is re-resolved once; a migrating
// session answers 409 with a retry hint. On any failure the response
// has been written and ok is false.
func (s *Server) acquireSession(w http.ResponseWriter, r *http.Request) (ses *session, unlock func(), ok bool) {
	id := r.PathValue("id")
	for attempt := 0; attempt < 2; attempt++ {
		ses, err := s.resolveSession(r.Context(), id)
		if err != nil {
			var qe *quarantinedError
			switch {
			case errors.As(err, &qe):
				writeError(w, http.StatusServiceUnavailable, qe.Error())
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				writeError(w, http.StatusGatewayTimeout, "session hydration: "+err.Error())
			default:
				writeError(w, http.StatusNotFound, err.Error())
			}
			return nil, nil, false
		}
		unlock := lockSession(ses)
		if ses.evicted {
			// Lost the race against the LRU sweep: the pointer we hold
			// is a husk whose journal is closed. Resolve again — the
			// hydration path will rebuild it.
			unlock()
			continue
		}
		if ses.migrating {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusConflict,
				fmt.Sprintf("placement %q is migrating to another replica; retry", id))
			unlock()
			return nil, nil, false
		}
		ses.lastUsed.Store(time.Now().UnixNano())
		return ses, unlock, true
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("placement %q is being evicted; retry", id))
	return nil, nil, false
}

// resolveSession returns the live session for id, rebuilding it from
// its WAL when it was evicted. Hydration of one id is serialized:
// the first request builds, the rest wait on its channel.
func (s *Server) resolveSession(ctx context.Context, id string) (*session, error) {
	for {
		s.mu.Lock()
		if ses, ok := s.sessions[id]; ok {
			if ses.quarantined != "" {
				s.mu.Unlock()
				return nil, &quarantinedError{id: id, reason: ses.quarantined}
			}
			s.mu.Unlock()
			return ses, nil
		}
		if !s.evicted[id] {
			s.mu.Unlock()
			return nil, fmt.Errorf("unknown placement %q", id)
		}
		if ch, busy := s.hydrating[id]; busy {
			s.mu.Unlock()
			select {
			case <-ch:
				continue // hydrated (or failed); re-check the table
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		ch := make(chan struct{})
		s.hydrating[id] = ch
		s.mu.Unlock()
		err := s.hydrate(ctx, id)
		s.mu.Lock()
		delete(s.hydrating, id)
		close(ch)
		s.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("hydrating placement %q: %w", id, err)
		}
	}
}

// hydrate rebuilds one evicted session from its WAL directory and
// publishes it (possibly quarantined, if replay diverged). The caller
// holds the id's hydrating channel.
func (s *Server) hydrate(ctx context.Context, id string) error {
	s.ensureLiveCapacity(1)
	ses, err := s.recoverSession(ctx, id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.evicted, id)
	metricEvictedSessions.Set(int64(len(s.evicted)))
	ses.id = id
	s.sessions[id] = ses
	registerSessionQueue(id)
	metricSessions.Set(int64(len(s.sessions)))
	if ses.quarantined != "" {
		metricQuarantined.Set(int64(s.quarantinedLocked()))
	}
	s.mu.Unlock()
	ses.lastUsed.Store(time.Now().UnixNano())
	metricHydrations.Add(1)
	return nil
}

// ensureLiveCapacity evicts least-recently-used durable sessions until
// there is room for incoming new live sessions under MaxLiveSessions.
// Sessions that cannot be evicted (no journal, quarantined, already
// migrating) are passed over; if nothing is evictable the bound is
// soft — the incoming session is admitted anyway, since refusing
// compute outright would be worse than briefly exceeding the target.
func (s *Server) ensureLiveCapacity(incoming int) {
	if s.opt.MaxLiveSessions <= 0 || s.opt.WALDir == "" {
		return
	}
	for {
		s.mu.Lock()
		if len(s.sessions)+incoming <= s.opt.MaxLiveSessions {
			s.mu.Unlock()
			return
		}
		var victim *session
		var victimAt int64
		for _, ses := range s.sessions {
			if ses.quarantined != "" {
				continue
			}
			if at := ses.lastUsed.Load(); victim == nil || at < victimAt {
				victim, victimAt = ses, at
			}
		}
		s.mu.Unlock()
		if victim == nil || !s.evict(victim) {
			return
		}
	}
}

// evict checkpoints one session and releases its engine, leaving only
// the WAL directory and an entry in Server.evicted. Returns false when
// the session turned out to be unevictable (raced a delete, has no
// journal, is mid-migration) so the LRU sweep can stop rather than
// spin. Lock order: ses.mu is taken first, then Server.mu — the
// declared session.mu < Server.mu order.
func (s *Server) evict(ses *session) bool {
	unlock := lockSession(ses)
	defer unlock()
	if ses.evicted || ses.migrating || ses.log == nil {
		return false
	}
	s.mu.Lock()
	if cur, ok := s.sessions[ses.id]; !ok || cur != ses || ses.quarantined != "" {
		s.mu.Unlock()
		return false
	}
	delete(s.sessions, ses.id)
	s.evicted[ses.id] = true
	dropSessionQueue(ses.id)
	metricSessions.Set(int64(len(s.sessions)))
	metricEvictedSessions.Set(int64(len(s.evicted)))
	s.mu.Unlock()
	// Checkpoint so rehydration replays from a current snapshot rather
	// than the whole journal tail. A snapshot failure is tolerable: the
	// journal still holds every accepted batch.
	if ses.batchesSinceSnap > 0 {
		if payload, err := marshalSnapshot(ses.engine.Placement()); err == nil {
			if ses.log.Snapshot(payload) == nil {
				ses.batchesSinceSnap = 0
				metricSnapshots.Add(1)
			} else {
				metricWALErrors.Add(1)
			}
		}
	}
	_ = ses.log.Close()
	ses.log = nil
	ses.evicted = true
	ses.engine = nil // release the field map and tile partition
	metricEvictions.Add(1)
	return true
}

// exportBundle builds the session's portable state under ses.mu: the
// WAL directory when durable, else a synthesized meta + current-
// placement snapshot.
func (s *Server) exportBundle(ses *session) (*wal.Bundle, error) {
	if ses.log != nil {
		return wal.Export(s.sessionDir(ses.id))
	}
	meta, err := marshalMeta(ses.meta)
	if err != nil {
		return nil, err
	}
	snap, err := marshalSnapshot(ses.engine.Placement())
	if err != nil {
		return nil, err
	}
	return &wal.Bundle{Meta: meta, SnapshotSeq: 1, Snapshot: snap}, nil
}

// handleExport serializes a session for shipping. With ?fence=1 the
// session additionally refuses further compute on this replica (the
// migration fence); DELETE lifts the session entirely once the import
// elsewhere succeeded.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Evicted sessions export straight from disk — no need to rebuild
	// an engine just to serialize the WAL that would rebuild it.
	s.mu.Lock()
	onDisk := s.evicted[id]
	s.mu.Unlock()
	if onDisk {
		b, err := wal.Export(s.sessionDir(id))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "export: "+err.Error())
			return
		}
		metricExports.Add(1)
		writeBundle(w, b)
		return
	}
	ses, unlock, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer unlock()
	b, err := s.exportBundle(ses)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "export: "+err.Error())
		return
	}
	if r.URL.Query().Get("fence") == "1" {
		ses.migrating = true
	}
	metricExports.Add(1)
	writeBundle(w, b)
}

func writeBundle(w http.ResponseWriter, b *wal.Bundle) {
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(wal.EncodeBundle(b))
}

// handleImport rehydrates a shipped bundle as a session with the path
// id. With a WAL directory the bundle lands on disk first and recovery
// replays it (so the imported session is durable from its first
// moment); without one it is rebuilt in memory.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wal.MaxBundleBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "import: reading bundle: "+err.Error())
		return
	}
	b, err := wal.DecodeBundle(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "import: "+err.Error())
		return
	}
	if err := s.reserveImported(id); err != nil {
		var taken *idTakenError
		var invalid *invalidIDError
		switch {
		case errors.As(err, &taken):
			writeError(w, http.StatusConflict, err.Error())
		case errors.As(err, &invalid):
			writeError(w, http.StatusUnprocessableEntity, err.Error())
		default:
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, err.Error())
		}
		return
	}
	s.ensureLiveCapacity(1)
	var ses *session
	if s.opt.WALDir != "" {
		dir := s.sessionDir(id)
		if err := wal.Rehydrate(dir, b); err != nil {
			s.unreserve()
			writeError(w, http.StatusConflict, "import: "+err.Error())
			return
		}
		ses, err = s.recoverSession(r.Context(), id)
		if err != nil {
			s.unreserve()
			_ = wal.Remove(dir)
			s.writeImportError(w, err)
			return
		}
	} else {
		rec := &wal.Recovered{Meta: b.Meta, SnapshotSeq: b.SnapshotSeq, Snapshot: b.Snapshot, Records: b.Records}
		ses, err = s.buildSession(r.Context(), id, rec, nil)
		if err != nil {
			s.unreserve()
			s.writeImportError(w, err)
			return
		}
	}
	if ses.quarantined != "" {
		// A bundle whose replay diverges must not take root here: the
		// source still has the authoritative copy.
		reason := ses.quarantined
		if ses.log != nil {
			_ = ses.log.Close()
			_ = wal.Remove(s.sessionDir(id))
		}
		s.unreserve()
		writeError(w, http.StatusUnprocessableEntity, "import: bundle replay diverged: "+reason)
		return
	}
	s.publishSession(id, ses)
	metricImports.Add(1)
	writeJSON(w, http.StatusCreated, CreateResponse{
		ID:        id,
		NumTSVs:   ses.engine.NumTSVs(),
		NumPoints: ses.engine.NumPoints(),
		NumTiles:  ses.engine.Stats().TotalTiles,
		Mode:      ses.mode,
		Liner:     ses.liner,
	})
}

// writeImportError maps a bundle rebuild failure: cancellation is the
// client's deadline (504), anything else is a bad bundle (422).
func (s *Server) writeImportError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "import: "+err.Error())
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "import: "+err.Error())
}
