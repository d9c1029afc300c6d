package core

import (
	"context"
	"math/rand"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// benchPlacement is the chip-random benchmark's placement: 1000 random
// TSVs at 1e-2/µm², minimum pitch 2R′+1 µm, seed 1.
func benchPlacement(tb testing.TB) (material.Structure, *geom.Placement) {
	tb.Helper()
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(1000, 1e-2, 2*st.RPrime+1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return st, pl
}

// BenchmarkNew times building the analyzer over the benchmark placement:
// the two model solves, the spatial index and every victim's packed
// rounds.
func BenchmarkNew(b *testing.B) {
	st, pl := benchPlacement(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(st, pl, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewAllocsBounded pins New's allocation count to O(1) per victim:
// each victim's packed rounds are one struct and one slab, and the
// neighbor scratch is shared across a worker's victims.
func TestNewAllocsBounded(t *testing.T) {
	st, pl := benchPlacement(t)
	for _, workers := range []int{1, 2} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := New(st, pl, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		})
		// The model solves and the index cost a few hundred allocations
		// whatever the placement size.
		if limit := 2*float64(pl.Len()) + 500; allocs > limit {
			t.Errorf("Workers %d: New made %.0f allocations for %d TSVs, want ≤ %.0f", workers, allocs, pl.Len(), limit)
		}
	}
}

// TestNewIndependentOfWorkers checks that packing victims in parallel
// changes nothing: LS and Full maps and the round count are
// bit-identical for every worker count, and an analyzer rebuilt after
// seeded moves (sharing its unchanged victims' rounds) matches a fresh
// one.
func TestNewIndependentOfWorkers(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(1000, 1e-2, 2*st.RPrime+1, 29)
	if err != nil {
		t.Fatal(err)
	}
	pts := gridPoints(t, pl, 2.5)
	mapOf := func(a *Analyzer, mode Mode) []tensor.Stress {
		t.Helper()
		out := make([]tensor.Stress, len(pts))
		if err := a.MapInto(context.Background(), out, pts, mode); err != nil {
			t.Fatal(err)
		}
		return out
	}
	var ref, cur *Analyzer
	var refLS, refFull []tensor.Stress
	for _, workers := range []int{1, 2, 7} {
		a, err := New(st, pl, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 2 {
			cur = a // rebuilt below, so its rebuilds pack in parallel too
		}
		ls, full := mapOf(a, ModeLS), mapOf(a, ModeFull)
		if ref == nil {
			ref, refLS, refFull = a, ls, full
			continue
		}
		if a.NumPairRounds() != ref.NumPairRounds() {
			t.Errorf("Workers %d: %d pair rounds, Workers 1: %d", workers, a.NumPairRounds(), ref.NumPairRounds())
		}
		if i := firstBitDiff(ls, refLS); i >= 0 {
			t.Errorf("Workers %d: LS map differs from Workers 1 at %v", workers, pts[i])
		}
		if i := firstBitDiff(full, refFull); i >= 0 {
			t.Errorf("Workers %d: Full map differs from Workers 1 at %v", workers, pts[i])
		}
	}

	// Three rounds of seeded moves, each rebuilt from the last analyzer.
	rng := rand.New(rand.NewSource(7))
	cut := ref.Options().PairPitchCutoff
	for gen := 0; gen < 3; gen++ {
		edited := cur.Placement.Clone()
		moved := map[int]bool{}
		var touched []geom.Point // old and new centers of moved TSVs
		for len(moved) < 12 {
			j := rng.Intn(edited.Len())
			old := edited.TSVs[j].Center
			to := old.Add(geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10))
			if (geom.Edit{Op: geom.EditMove, Index: j, TSV: geom.TSV{Center: to}}).Apply(edited, 2*st.RPrime) != nil {
				continue
			}
			moved[j] = true
			touched = append(touched, old, to)
		}
		shared := 0
		prev := func(j int) int {
			if moved[j] {
				return -1
			}
			c := edited.TSVs[j].Center
			for _, p := range touched {
				if c.Dist(p) <= cut {
					return -1
				}
			}
			shared++
			return j
		}
		nb, err := cur.Rebuild(edited, prev)
		if err != nil {
			t.Fatal(err)
		}
		if nb.Model != cur.Model || nb.LS != cur.LS {
			t.Fatal("Rebuild did not share the solved models")
		}
		if shared == 0 || shared == edited.Len() {
			t.Fatalf("gen %d: degenerate reuse split, %d of %d victims shared", gen, shared, edited.Len())
		}
		fresh, err := New(st, edited, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if nb.NumPairRounds() != fresh.NumPairRounds() {
			t.Errorf("gen %d: rebuilt analyzer has %d rounds, fresh %d", gen, nb.NumPairRounds(), fresh.NumPairRounds())
		}
		for _, mode := range []Mode{ModeLS, ModeFull} {
			if d := maxDiff(mapOf(nb, mode), mapOf(fresh, mode)); d > parityTol {
				t.Errorf("gen %d mode %v: rebuilt analyzer differs from a fresh one by %.3g MPa", gen, mode, d)
			}
		}
		cur = nb
	}
}
