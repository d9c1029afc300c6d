package core

import (
	"context"
	"runtime"
	"testing"

	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// fullChipSetup builds the ISSUE-scale case: 1000 TSVs at the paper's
// 1e-2/µm² density with a ≥200k-point device-layer grid.
func fullChipSetup(b *testing.B) (*Analyzer, []geom.Point) {
	b.Helper()
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(1000, 1e-2, 2*st.RPrime+1, 2013)
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(st, pl, Options{})
	if err != nil {
		b.Fatal(err)
	}
	region := pl.Bounds(5)
	// Spacing chosen so the masked grid carries at least 200k points.
	spacing := 0.55
	g, err := field.NewGrid(region, spacing)
	if err != nil {
		b.Fatal(err)
	}
	// Simulation points are device-layer silicon locations outside the
	// TSV footprints (DESIGN.md §2), as cmd/tsvstress masks by default.
	pts := field.Masked(g.Points(), field.OutsideTSVs(pl, st.RPrime))
	if len(pts) < 200_000 {
		b.Fatalf("grid has %d points, want >= 200k", len(pts))
	}
	return a, pts
}

func benchMap(b *testing.B, mode Mode, pointwise bool) {
	a, pts := fullChipSetup(b)
	dst := make([]tensor.Stress, len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pointwise {
			a.mapPointwise(context.Background(), dst, pts, mode)
		} else {
			if err := a.MapInto(context.Background(), dst, pts, mode); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	nsPerPoint := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(pts))
	b.ReportMetric(nsPerPoint, "ns/point")
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkFullChipMap reports full-chip sweep throughput in ns/point:
// LS and Full modes through the tile-batched engine and through the
// pointwise path (mapPointwise) for comparison. Cross-change claims
// use the repository benchmark (bench/), not this one.
func BenchmarkFullChipMap(b *testing.B) {
	b.Run("ls-batched", func(b *testing.B) { benchMap(b, ModeLS, false) })
	b.Run("full-batched", func(b *testing.B) { benchMap(b, ModeFull, false) })
	b.Run("ls-pointwise", func(b *testing.B) { benchMap(b, ModeLS, true) })
	b.Run("full-pointwise", func(b *testing.B) { benchMap(b, ModeFull, true) })
}

// BenchmarkTiling times MapInto's partition step alone on the
// fullChipSetup grid at the 25 µm gather cutoff: fresh is the serial
// counting sort a cold map pays (build), revalidate the check a repeated
// map of the same points pays instead (matches, in as many chunks as
// GOMAXPROCS, which -cpu sets).
func BenchmarkTiling(b *testing.B) {
	a, pts := fullChipSetup(b)
	cutoff := a.Options().GatherCutoff(ModeFull)
	b.Run("fresh", func(b *testing.B) {
		var tl Tiling
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if bad := tl.build(pts, cutoff); bad >= 0 {
				b.Fatalf("point %d not finite", bad)
			}
		}
	})
	b.Run("revalidate", func(b *testing.B) {
		var tl Tiling
		tl.build(pts, cutoff)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !tl.matches(pts, cutoff, runtime.GOMAXPROCS(0)) {
				b.Fatal("revalidation rejected an unchanged grid")
			}
		}
	})
}
