// Package incr implements incremental full-chip stress evaluation over
// a mutable placement — the ECO (engineering change order) workload:
// a designer adds, removes or moves a handful of TSVs and wants the
// updated stress map without paying for a from-scratch recompute.
//
// The paper's framework makes this possible because both stages are
// local: a simulation point's Stage I sum only sees TSVs within
// LSCutoff, and its Stage II correction only sees pair rounds whose
// victim lies within PairDistCutoff (with aggressors within
// PairPitchCutoff of that victim). Editing one TSV therefore perturbs
// the field only inside a bounded region:
//
//   - Stage I changes inside disc(site, LSCutoff) around each edit
//     site (the old and/or new center);
//   - Stage II changes inside disc(v, PairDistCutoff) for every victim
//     v whose round set changed — the edited TSV itself plus every TSV
//     within PairPitchCutoff of an edit site.
//
// The engine pins one core.Tiling over the session's fixed simulation
// points (the partition MapInto uses). As edits are applied it marks
// dirty exactly the points inside those discs, visiting only the tiles
// near each disc, and on Flush rebuilds the analyzer through the
// edit-aware constructor (core.Analyzer.Rebuild — shared Stage I
// engine and interactive model, per-victim rounds repacked only where
// an edit touched them) and
// re-evaluates just the dirty points of the dirty tiles concurrently.
// Clean points keep their values, which is exact: their true field is
// unchanged, and the dirty discs cover every affected point (the parity
// property test pins incremental-vs-scratch agreement at ≤1e-9 MPa).
//
// An Engine is not safe for concurrent use; callers (internal/serve
// sessions) serialize access.
package incr

import (
	"context"
	"errors"
	"fmt"

	"tsvstress/internal/core"
	"tsvstress/internal/faultinject"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// Engine is an incremental stress-map session: one structure, one
// evaluation mode, one fixed simulation-point set, and a placement that
// evolves through Apply calls.
type Engine struct {
	st       material.Structure
	mode     core.Mode
	minPitch float64

	pl *geom.Placement // current placement (owned clone)
	an *core.Analyzer  // analyzer of the last-flushed placement

	pts    []geom.Point // owned copy of the simulation points
	tiling *core.Tiling
	vals   []tensor.Stress

	// prevIdx[j] is the index TSV j held in the last-flushed analyzer
	// when its center and full aggressor neighborhood are unchanged
	// since the flush, else -1 (see core.Analyzer.Rebuild).
	prevIdx []int
	// Dirty set: mask flags the points a flush owes, dirty flags their
	// tiles, ids lists the flagged tiles in marking order, dirtyPts
	// counts the flagged points.
	mask     []bool
	dirty    []bool
	ids      []int32
	dirtyPts int
	near     []int32 // scratch: tiles near one influence disc

	pendingEdits int
	// needsEval forces the next Flush to re-evaluate the dirty points
	// even with no pending edits: set when a flush was canceled after
	// committing its analyzer rebuild, or after a degraded (LS-only)
	// flush whose points still owe a full-mode pass.
	needsEval bool
	// degraded reports that the dirty points currently hold Stage-I-only
	// values (a load-shedding flush); cleared by the next full flush.
	degraded bool
	stats    Stats
}

// Stats reports the engine's incremental-evaluation counters.
type Stats struct {
	// Edits is the total number of applied edits.
	Edits int
	// Flushes is the number of Flush calls that re-evaluated tiles.
	Flushes int
	// TotalTiles is the tile count of the session's partition.
	TotalTiles int
	// LastDirtyTiles is the number of tiles holding the points the last
	// flush re-evaluated.
	LastDirtyTiles int
	// LastDirtyRatio is the share of the session's points the last
	// flush re-evaluated (0 when no flush has run).
	LastDirtyRatio float64
	// DegradedFlushes counts load-shedding flushes that evaluated dirty
	// points in LS mode only (see FlushDegraded).
	DegradedFlushes int
	// CanceledFlushes counts Flush calls aborted by context
	// cancellation after at least the analyzer rebuild committed.
	CanceledFlushes int
}

// New builds an engine: it constructs the analyzer, partitions the
// simulation points into tiles, and evaluates the initial full map.
// The placement and points are copied; later mutation of the caller's
// slices does not affect the session. The initial evaluation observes
// ctx (per tile, see core.EvalTiles); a canceled build returns an error
// matching core.ErrCanceled and no engine.
func New(ctx context.Context, st material.Structure, pl *geom.Placement, pts []geom.Point, mode core.Mode, opt core.Options) (*Engine, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("incr: empty simulation point set")
	}
	an, err := core.New(st, pl.Clone(), opt)
	if err != nil {
		return nil, err
	}
	own := append([]geom.Point(nil), pts...)
	// The same partition MapInto uses: the dirty set is tracked per
	// point, so the tile size only trades the per-tile candidate gather
	// against the points sharing it, exactly as in a full map.
	tl, err := core.NewTiling(own, an.Options().GatherCutoff(mode))
	if err != nil {
		return nil, err
	}
	e := &Engine{
		st:       st,
		mode:     mode,
		minPitch: 2 * st.RPrime,
		pl:       pl.Clone(),
		an:       an,
		pts:      own,
		tiling:   tl,
		vals:     make([]tensor.Stress, len(own)),
		prevIdx:  make([]int, pl.Len()),
		mask:     make([]bool, len(own)),
		dirty:    make([]bool, tl.NumTiles()),
	}
	for j := range e.prevIdx {
		e.prevIdx[j] = j
	}
	e.stats.TotalTiles = tl.NumTiles()
	// The initial map evaluates every tile of the session's own tiling,
	// the partition a MapInto of these points would sort out again, so
	// the points are partitioned once and the values are a batched
	// MapInto's bit for bit.
	e.ids = make([]int32, tl.NumTiles())
	for id := range e.ids {
		e.ids[id] = int32(id)
	}
	if err := an.EvalTiles(ctx, e.vals, e.pts, tl, e.ids, nil, mode); err != nil {
		return nil, err
	}
	e.ids = e.ids[:0]
	return e, nil
}

// NumTSVs returns the current TSV count (including unflushed edits).
func (e *Engine) NumTSVs() int { return e.pl.Len() }

// NumPoints returns the session's simulation-point count.
func (e *Engine) NumPoints() int { return len(e.pts) }

// Mode returns the evaluation mode the session is pinned to.
func (e *Engine) Mode() core.Mode { return e.mode }

// Points returns the session's simulation points. The slice is owned
// by the engine; callers must not mutate it.
func (e *Engine) Points() []geom.Point { return e.pts }

// Values returns the current stress map in point order. The slice is
// owned by the engine and rewritten in place by Flush; callers must
// not mutate it and must not read it concurrently with Flush. With
// edits pending it reflects the last flushed placement.
func (e *Engine) Values() []tensor.Stress { return e.vals }

// Placement returns a clone of the current placement (including
// unflushed edits).
func (e *Engine) Placement() *geom.Placement { return e.pl.Clone() }

// Analyzer returns the analyzer of the last-flushed placement — the
// evaluator reliability screening and keep-out-zone scans run against.
// It is immutable and safe for concurrent use, but stale while edits
// are pending; call Flush first.
func (e *Engine) Analyzer() *core.Analyzer { return e.an }

// Pending returns the number of edits applied since the last Flush.
func (e *Engine) Pending() int { return e.pendingEdits }

// NeedsFlush reports whether Flush would do work: edits are pending, or
// dirty points still owe an evaluation after a canceled or degraded
// flush.
func (e *Engine) NeedsFlush() bool { return e.pendingEdits > 0 || e.needsEval }

// Stats returns the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Apply validates ed against the current placement and applies it,
// marking the affected points dirty. The field map is not updated until
// Flush. A failed edit leaves the session unchanged.
func (e *Engine) Apply(ed geom.Edit) error {
	// Test-only drill (one atomic load when unarmed): an injected
	// failure here models an engine/validator divergence — an edit the
	// rehearsal accepted that the engine then refuses.
	if err := faultinject.Fire("incr.apply"); err != nil {
		return err
	}
	// Capture the old center before the placement mutates.
	var oldC geom.Point
	hasOld := ed.Op == geom.EditRemove || ed.Op == geom.EditMove
	if hasOld {
		if ed.Index < 0 || ed.Index >= e.pl.Len() {
			return fmt.Errorf("incr: edit index %d outside placement of %d TSVs", ed.Index, e.pl.Len())
		}
		oldC = e.pl.TSVs[ed.Index].Center
	}
	if err := ed.Apply(e.pl, e.minPitch); err != nil {
		return err
	}

	// Maintain the index mapping into the last-flushed analyzer.
	switch ed.Op {
	case geom.EditAdd:
		e.prevIdx = append(e.prevIdx, -1)
	case geom.EditRemove:
		e.prevIdx = append(e.prevIdx[:ed.Index], e.prevIdx[ed.Index+1:]...)
	case geom.EditMove:
		e.prevIdx[ed.Index] = -1
	}

	// Edit sites: centers whose single-TSV contribution and round
	// participation changed.
	var sites [2]geom.Point
	ns := 0
	if hasOld {
		sites[ns] = oldC
		ns++
	}
	if ed.Op == geom.EditAdd || ed.Op == geom.EditMove {
		sites[ns] = ed.TSV.Center
		ns++
	}
	e.markEdit(sites[:ns])

	e.pendingEdits++
	e.stats.Edits++
	return nil
}

// Flush rebuilds the analyzer for the edited placement (reusing the
// solved models and every untouched victim's packed rounds) and
// re-evaluates the dirty points, returning the updated map (the same
// slice Values returns). With no pending work it returns immediately.
//
// Cancellation is cooperative (per tile): when ctx fires mid-flush the
// call returns an error matching core.ErrCanceled, but the engine stays
// reusable — the analyzer rebuild is committed, the dirty set stays
// marked, and the next Flush re-evaluates exactly the owed points, so a
// retry restores full parity with a from-scratch evaluation.
func (e *Engine) Flush(ctx context.Context) ([]tensor.Stress, error) {
	return e.flush(ctx, e.mode)
}

// FlushDegraded is the load-shedding variant for sessions pinned to
// core.ModeFull: it applies pending edits but evaluates the dirty points
// in LS (Stage I only) mode, which skips the pair-round accumulation —
// the expensive part of a full-mode flush. The points stay marked dirty
// and Degraded reports true until a later Flush re-evaluates them in
// the session's pinned mode, restoring parity. For sessions not pinned
// to Full mode it behaves exactly like Flush (there is nothing cheaper
// to degrade to).
func (e *Engine) FlushDegraded(ctx context.Context) ([]tensor.Stress, error) {
	if e.mode != core.ModeFull {
		return e.flush(ctx, e.mode)
	}
	return e.flush(ctx, core.ModeLS)
}

// Degraded reports whether the map currently holds Stage-I-only values
// at its dirty points after a FlushDegraded; the next Flush clears it.
func (e *Engine) Degraded() bool { return e.degraded }

func (e *Engine) flush(ctx context.Context, mode core.Mode) ([]tensor.Stress, error) {
	if e.pendingEdits == 0 && !e.needsEval {
		return e.vals, nil
	}
	if e.pendingEdits > 0 {
		prevIdx := e.prevIdx
		an, err := e.an.Rebuild(e.pl.Clone(), func(j int) int { return prevIdx[j] })
		if err != nil {
			return nil, err
		}
		// Commit the rebuild before evaluating: the analyzer now matches
		// e.pl, so a canceled evaluation can retry with an identity
		// mapping (full round reuse) instead of re-deriving edits.
		e.an = an
		e.prevIdx = e.prevIdx[:0]
		for j := 0; j < e.pl.Len(); j++ {
			e.prevIdx = append(e.prevIdx, j)
		}
		e.pendingEdits = 0
		e.needsEval = true
	}
	if err := e.an.EvalTiles(ctx, e.vals, e.pts, e.tiling, e.ids, e.mask, mode); err != nil {
		// The dirty set stays marked: the next Flush retries the
		// evaluation against the already-committed analyzer.
		if errors.Is(err, core.ErrCanceled) {
			e.stats.CanceledFlushes++
		}
		return nil, err
	}
	e.stats.Flushes++
	e.stats.LastDirtyTiles = len(e.ids)
	e.stats.LastDirtyRatio = float64(e.dirtyPts) / float64(len(e.pts))
	if mode != e.mode {
		// Degraded pass: the points hold LS-only values and still owe a
		// full-mode evaluation — keep them dirty.
		e.degraded = true
		e.stats.DegradedFlushes++
	} else {
		e.clearDirty()
		e.needsEval = false
		e.degraded = false
	}
	return e.vals, nil
}
