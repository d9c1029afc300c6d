package core

import (
	"context"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// TestRebuildSharesUnchangedRounds verifies the prev mapping: victims
// far from the edit share their packed rounds by pointer.
func TestRebuildSharesUnchangedRounds(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl := placegen.Array(10, 10, 10)
	an, err := New(st, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Move TSV 0 (a corner); victims beyond PairPitchCutoff of both its
	// old and new position keep their round sets.
	oldC := pl.TSVs[0].Center
	newC := oldC.Add(geom.Pt(-15, -15))
	edited := pl.Clone()
	if err := (geom.Edit{Op: geom.EditMove, Index: 0, TSV: geom.TSV{Center: newC}}).Apply(edited, 2*st.RPrime); err != nil {
		t.Fatal(err)
	}
	cut := an.Options().PairPitchCutoff
	prev := func(j int) int {
		if j == 0 {
			return -1
		}
		c := edited.TSVs[j].Center
		if c.Dist(oldC) <= cut || c.Dist(newC) <= cut {
			return -1
		}
		return j
	}
	nb, err := an.Rebuild(edited, prev)
	if err != nil {
		t.Fatal(err)
	}
	shared, rebuilt := 0, 0
	for j := range nb.victimRounds {
		if prev(j) >= 0 {
			if nb.victimRounds[j] != an.victimRounds[j] {
				t.Fatalf("victim %d eligible for reuse but rounds were rebuilt", j)
			}
			shared++
		} else {
			rebuilt++
		}
	}
	if shared == 0 || rebuilt == 0 {
		t.Fatalf("degenerate reuse split: %d shared, %d rebuilt", shared, rebuilt)
	}

	// Parity against a from-scratch analyzer.
	scratch, err := New(st, edited, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := gridPoints(t, edited, 3)
	got := make([]tensor.Stress, len(pts))
	want := make([]tensor.Stress, len(pts))
	if err := nb.MapInto(context.Background(), got, pts, ModeFull); err != nil {
		t.Fatal(err)
	}
	if err := scratch.MapInto(context.Background(), want, pts, ModeFull); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if d := maxAbsDiff(got[i], want[i]); d > 1e-9 {
			t.Fatalf("round-sharing rebuild differs from scratch at %v by %g MPa", pts[i], d)
		}
	}
}

func TestRebuildValidates(t *testing.T) {
	st := material.Baseline(material.BCB)
	an, err := New(st, geom.NewPlacement(geom.Pt(0, 0), geom.Pt(20, 0)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping TSVs must be rejected exactly as New rejects them.
	bad := geom.NewPlacement(geom.Pt(0, 0), geom.Pt(1, 0))
	if _, err := an.Rebuild(bad, nil); err == nil {
		t.Error("Rebuild accepted an overlapping placement")
	}
}
