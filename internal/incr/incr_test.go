package incr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

func testSession(t *testing.T, n int, seed int64, spacing float64, mode core.Mode) (*Engine, material.Structure) {
	t.Helper()
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(n, 1e-2, 2*st.RPrime+1, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := field.NewGrid(pl.Bounds(5), spacing)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(context.Background(), st, pl, g.Points(), mode, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, st
}

func maxDiff(a, b tensor.Stress) float64 {
	d := math.Abs(a.XX - b.XX)
	if v := math.Abs(a.YY - b.YY); v > d {
		d = v
	}
	if v := math.Abs(a.XY - b.XY); v > d {
		d = v
	}
	return d
}

// checkParity compares the engine's map against a from-scratch analyzer
// over the engine's current placement.
func checkParity(t *testing.T, e *Engine, st material.Structure, tol float64) {
	t.Helper()
	vals, err := e.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := core.New(st, e.Placement(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]tensor.Stress, e.NumPoints())
	if err := scratch.MapInto(context.Background(), want, e.Points(), e.Mode()); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	worstI := -1
	for i := range want {
		if d := maxDiff(vals[i], want[i]); d > worst {
			worst, worstI = d, i
		}
	}
	if worst > tol {
		t.Fatalf("incremental map differs from scratch by %g MPa at point %d %v (tol %g)",
			worst, worstI, e.Points()[worstI], tol)
	}
}

func TestEngineInitialMapMatchesScratch(t *testing.T) {
	e, st := testSession(t, 60, 3, 1.5, core.ModeFull)
	checkParity(t, e, st, 1e-12) // no edits: bit-near-identical path
	if e.Stats().Flushes != 0 {
		t.Error("flush with no edits re-evaluated tiles")
	}
}

func TestEngineSingleEdits(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeFull, core.ModeLS} {
		e, st := testSession(t, 60, 4, 1.5, mode)

		// Move one TSV.
		target := e.Placement().TSVs[10].Center
		if err := e.Apply(geom.Edit{Op: geom.EditMove, Index: 10, TSV: geom.TSV{Center: target.Add(geom.Pt(3, 2))}}); err != nil {
			t.Fatal(err)
		}
		checkParity(t, e, st, 1e-9)

		// Add a TSV in a gap.
		bounds := e.Placement().Bounds(0)
		added := false
		for try := 0; try < 200 && !added; try++ {
			c := geom.Pt(bounds.Min.X+float64(try)*1.7, bounds.Center().Y)
			if err := e.Apply(geom.Edit{Op: geom.EditAdd, TSV: geom.TSV{Center: c}}); err == nil {
				added = true
			}
		}
		if !added {
			t.Fatal("could not place an added TSV")
		}
		checkParity(t, e, st, 1e-9)

		// Remove one.
		if err := e.Apply(geom.Edit{Op: geom.EditRemove, Index: 5}); err != nil {
			t.Fatal(err)
		}
		checkParity(t, e, st, 1e-9)

		st2 := e.Stats()
		if st2.Edits != 3 || st2.Flushes != 3 {
			t.Errorf("mode %v: stats %+v, want 3 edits / 3 flushes", mode, st2)
		}
		if st2.LastDirtyTiles == 0 || st2.LastDirtyTiles == st2.TotalTiles {
			t.Errorf("mode %v: last flush dirtied %d of %d tiles — not incremental",
				mode, st2.LastDirtyTiles, st2.TotalTiles)
		}
	}
}

func TestEngineRejectsBadEdits(t *testing.T) {
	e, _ := testSession(t, 30, 5, 2, core.ModeFull)
	before := e.Placement()
	cases := []geom.Edit{
		{Op: geom.EditMove, Index: -1, TSV: geom.TSV{Center: geom.Pt(0, 0)}},
		{Op: geom.EditMove, Index: 99, TSV: geom.TSV{Center: geom.Pt(0, 0)}},
		{Op: geom.EditAdd, TSV: geom.TSV{Center: geom.Pt(math.NaN(), 0)}},
		{Op: geom.EditAdd, TSV: geom.TSV{Center: before.TSVs[0].Center.Add(geom.Pt(0.5, 0))}},
		{Op: geom.EditRemove, Index: 30},
	}
	for _, ed := range cases {
		if err := e.Apply(ed); err == nil {
			t.Errorf("edit %v accepted", ed)
		}
	}
	if e.Pending() != 0 {
		t.Error("failed edits left pending work")
	}
	after := e.Placement()
	if len(after.TSVs) != len(before.TSVs) {
		t.Error("failed edits mutated the placement")
	}
}

// TestEngineEditSequenceParity is the property test of the issue: a
// random sequence of ≤20 edits followed by one Flush must match a fresh
// MapInto over the final placement within 1e-9 MPa, in Full and LS
// modes. Each iteration also flushes mid-sequence on a coin flip so
// multi-flush sessions are covered.
func TestEngineEditSequenceParity(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeFull, core.ModeLS} {
		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(100*int(mode) + trial)))
			e, st := testSession(t, 50, int64(7+trial), 2, mode)
			bounds := e.Placement().Bounds(10)
			nEdits := 1 + rng.Intn(20)
			applied := 0
			for applied < nEdits {
				if err := e.Apply(randomEdit(rng, e.Placement(), bounds)); err != nil {
					continue // invalid random edit: retry with a new one
				}
				applied++
				if rng.Intn(6) == 0 {
					if _, err := e.Flush(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkParity(t, e, st, 1e-9)
		}
	}
}

func randomEdit(rng *rand.Rand, pl *geom.Placement, bounds geom.Rect) geom.Edit {
	randPt := func() geom.Point {
		return geom.Pt(bounds.Min.X+rng.Float64()*bounds.W(), bounds.Min.Y+rng.Float64()*bounds.H())
	}
	switch op := rng.Intn(3); {
	case op == 0 || pl.Len() < 2:
		return geom.Edit{Op: geom.EditAdd, TSV: geom.TSV{Center: randPt()}}
	case op == 1:
		return geom.Edit{Op: geom.EditRemove, Index: rng.Intn(pl.Len())}
	default:
		i := rng.Intn(pl.Len())
		step := geom.Pt(rng.NormFloat64()*8, rng.NormFloat64()*8)
		return geom.Edit{Op: geom.EditMove, Index: i, TSV: geom.TSV{Center: pl.TSVs[i].Center.Add(step)}}
	}
}

// TestEngineBatchedEditsOneFlush covers the coalescing path: many edits
// then a single Flush.
func TestEngineBatchedEditsOneFlush(t *testing.T) {
	e, st := testSession(t, 50, 9, 2, core.ModeFull)
	rng := rand.New(rand.NewSource(42))
	bounds := e.Placement().Bounds(10)
	applied := 0
	for applied < 12 {
		if err := e.Apply(randomEdit(rng, e.Placement(), bounds)); err == nil {
			applied++
		}
	}
	if e.Pending() != 12 {
		t.Fatalf("pending = %d, want 12", e.Pending())
	}
	checkParity(t, e, st, 1e-9)
	if e.Pending() != 0 {
		t.Error("flush left pending edits")
	}
}

// TestEngineReusesModels pins the edit-aware constructor wiring: a
// flush must keep the same superpose.LS and interact.Model instances.
func TestEngineReusesModels(t *testing.T) {
	e, _ := testSession(t, 40, 11, 2, core.ModeFull)
	ls, model := e.Analyzer().LS, e.Analyzer().Model
	if err := e.Apply(geom.Edit{Op: geom.EditRemove, Index: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Analyzer().LS != ls || e.Analyzer().Model != model {
		t.Error("flush rebuilt the solved models instead of reusing them")
	}
}

// TestDirtySetIsExactlyTheInfluenceDiscs is the point-level locality
// property: after every random edit the dirty mask must contain every
// point whose from-scratch value the edit changed (superset), and no
// point farther than radius + 1e-6 from every influence disc marked
// since the last flush (tightness). The discs are rebuilt here from the
// DESIGN.md §12 invariant, independently of the engine.
func TestDirtySetIsExactlyTheInfluenceDiscs(t *testing.T) {
	type disc struct {
		c geom.Point
		r float64
	}
	scratchMap := func(t *testing.T, e *Engine, st material.Structure, pl *geom.Placement) []tensor.Stress {
		t.Helper()
		an, err := core.New(st, pl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]tensor.Stress, e.NumPoints())
		if err := an.MapInto(context.Background(), out, e.Points(), e.Mode()); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, mode := range []core.Mode{core.ModeFull, core.ModeLS, core.ModeInteractive} {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(31*int(mode) + trial)))
			e, st := testSession(t, 30, int64(21+trial), 2, mode)
			opt := e.Analyzer().Options()
			pair := mode != core.ModeLS
			siteR := opt.LSCutoff
			if pair && opt.PairDistCutoff > siteR {
				siteR = opt.PairDistCutoff
			}
			bounds := e.Placement().Bounds(10)
			var discs []disc
			before := scratchMap(t, e, st, e.Placement())
			for applied := 0; applied < 10; {
				pl0 := e.Placement()
				ed := randomEdit(rng, pl0, bounds)
				if err := e.Apply(ed); err != nil {
					continue
				}
				applied++
				pl1 := e.Placement()
				var sites []geom.Point
				if ed.Op != geom.EditAdd {
					sites = append(sites, pl0.TSVs[ed.Index].Center)
				}
				if ed.Op != geom.EditRemove {
					sites = append(sites, ed.TSV.Center)
				}
				for _, s := range sites {
					discs = append(discs, disc{s, siteR})
				}
				if pair {
					for _, tsv := range pl1.TSVs {
						for _, s := range sites {
							if tsv.Center.Dist(s) <= opt.PairPitchCutoff {
								discs = append(discs, disc{tsv.Center, opt.PairDistCutoff})
								break
							}
						}
					}
				}

				after := scratchMap(t, e, st, pl1)
				for i, p := range e.Points() {
					if !e.mask[i] && maxDiff(before[i], after[i]) > 1e-9 {
						t.Fatalf("mode %v trial %d: %v changed point %d at %v by %g but left it clean",
							mode, trial, ed, i, p, maxDiff(before[i], after[i]))
					}
					if !e.mask[i] {
						continue
					}
					near := false
					for _, d := range discs {
						if p.Dist(d.c) <= d.r+1e-6+1e-9 {
							near = true
							break
						}
					}
					if !near {
						t.Fatalf("mode %v trial %d: point %d at %v marked outside every influence disc", mode, trial, i, p)
					}
				}
				before = after
				if rng.Intn(4) == 0 {
					if _, err := e.Flush(context.Background()); err != nil {
						t.Fatal(err)
					}
					discs = discs[:0]
					for i := range e.mask {
						if e.mask[i] {
							t.Fatalf("mode %v: flush left point %d marked", mode, i)
						}
					}
				}
			}
			checkParity(t, e, st, 1e-9)
		}
	}
}
