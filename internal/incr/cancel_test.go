package incr

import (
	"context"
	"errors"
	"testing"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/faultinject"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
)

// TestFlushCanceledThenRetryRestoresParity pins the engine's
// cancel-then-retry contract: a Flush aborted mid-evaluation returns an
// error matching core.ErrCanceled, leaves the engine reusable (dirty
// set retained, analyzer rebuild committed), and the next Flush
// restores exact parity with a from-scratch evaluation.
func TestFlushCanceledThenRetryRestoresParity(t *testing.T) {
	defer faultinject.Reset()
	e, st := testSession(t, 60, 11, 1.0, core.ModeFull)

	if err := e.Apply(geom.Edit{Op: geom.EditMove, Index: 0,
		TSV: geom.TSV{Center: e.Placement().TSVs[0].Center.Add(geom.Pt(3, 2))}}); err != nil {
		t.Fatal(err)
	}

	faultinject.Set("core.tile.eval", faultinject.Fault{Delay: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := e.Flush(ctx); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Flush under deadline = %v, want ErrCanceled", err)
	}
	faultinject.Reset()

	if e.Stats().CanceledFlushes != 1 {
		t.Fatalf("CanceledFlushes = %d, want 1", e.Stats().CanceledFlushes)
	}
	if !e.NeedsFlush() {
		t.Fatal("canceled flush cleared NeedsFlush; the owed points would never re-evaluate")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after the rebuild committed, want 0", e.Pending())
	}

	// Retry on the untouched engine: full parity with scratch.
	checkParity(t, e, st, 1e-9)
	if e.NeedsFlush() {
		t.Fatal("successful retry left NeedsFlush set")
	}
}

// TestFlushDegradedThenFullRestoresParity pins the degradation ladder:
// a degraded flush applies the edits with Stage-I-only values in the
// dirty points, reports Degraded, and a later full Flush heals back to
// exact full-mode parity.
func TestFlushDegradedThenFullRestoresParity(t *testing.T) {
	e, st := testSession(t, 60, 12, 1.0, core.ModeFull)

	if err := e.Apply(geom.Edit{Op: geom.EditRemove, Index: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FlushDegraded(context.Background()); err != nil {
		t.Fatalf("FlushDegraded: %v", err)
	}
	if !e.Degraded() {
		t.Fatal("FlushDegraded did not mark the map degraded")
	}
	if e.Stats().DegradedFlushes != 1 {
		t.Fatalf("DegradedFlushes = %d, want 1", e.Stats().DegradedFlushes)
	}
	if !e.NeedsFlush() {
		t.Fatal("degraded points still owe a full-mode pass; NeedsFlush must hold")
	}

	// checkParity runs a regular Flush first, which heals the map.
	checkParity(t, e, st, 1e-9)
	if e.Degraded() || e.NeedsFlush() {
		t.Fatal("full Flush did not clear the degraded state")
	}
}

// TestFlushDegradedIsFlushForNonFullModes: for an LS-pinned session
// there is nothing cheaper to degrade to.
func TestFlushDegradedIsFlushForNonFullModes(t *testing.T) {
	e, st := testSession(t, 40, 13, 1.5, core.ModeLS)
	if err := e.Apply(geom.Edit{Op: geom.EditRemove, Index: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FlushDegraded(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Degraded() {
		t.Fatal("an LS session cannot be degraded")
	}
	if e.Stats().DegradedFlushes != 0 {
		t.Fatalf("DegradedFlushes = %d, want 0", e.Stats().DegradedFlushes)
	}
	checkParity(t, e, st, 1e-9)
}

// TestNewCanceled: a canceled initial evaluation returns no engine.
func TestNewCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(40, 1e-2, 2*st.RPrime+1, 14)
	if err != nil {
		t.Fatal(err)
	}
	g, err := field.NewGrid(pl.Bounds(5), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ctx, st, pl, g.Points(), core.ModeFull, core.Options{}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("New(pre-canceled) = %v, want ErrCanceled", err)
	}
}
