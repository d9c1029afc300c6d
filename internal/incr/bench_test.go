package incr

import (
	"context"
	"math"
	"testing"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// benchChip is the acceptance-scale workload: 1000 TSVs at the paper's
// Table 6 density with a ~250k-point device-layer grid.
func benchChip(b *testing.B) (material.Structure, *geom.Placement, []geom.Point) {
	b.Helper()
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(1000, 1e-2, 2*st.RPrime+1, 2013)
	if err != nil {
		b.Fatal(err)
	}
	region := pl.Bounds(5)
	g, err := field.NewGrid(region, math.Sqrt(region.Area()/250_000))
	if err != nil {
		b.Fatal(err)
	}
	return st, pl, g.Points()
}

// BenchmarkIncrementalEdit measures one single-TSV move propagated to
// the full map: the incremental path (Apply + Flush over dirty points)
// against the from-scratch path (rebuild analyzer, full MapInto). The
// ns/op ratio of the two sub-benchmarks is the ECO speedup; the
// incremental case also reports the dirty-point ratio and ns per dirty
// point, the figure to set against core's BenchmarkFullChipMap
// ns/point.
func BenchmarkIncrementalEdit(b *testing.B) {
	st, pl, pts := benchChip(b)
	// One TSV toggled between its seed position and a 2 µm offset;
	// pick the first via where both positions are pitch-legal.
	target, delta := -1, geom.Pt(2, 1)
	for i := 0; i < pl.Len(); i++ {
		moved := geom.Edit{Op: geom.EditMove, Index: i, TSV: geom.TSV{Center: pl.TSVs[i].Center.Add(delta)}}
		if moved.Validate(pl, 2*st.RPrime) == nil {
			target = i
			break
		}
	}
	if target < 0 {
		b.Fatal("no legally movable TSV in the bench placement")
	}
	home := pl.TSVs[target].Center

	b.Run("incremental", func(b *testing.B) {
		e, err := New(context.Background(), st, pl, pts, core.ModeFull, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var dirtyPts float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := home.Add(delta)
			if i%2 == 1 {
				c = home
			}
			if err := e.Apply(geom.Edit{Op: geom.EditMove, Index: target, TSV: geom.TSV{Center: c}}); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Flush(context.Background()); err != nil {
				b.Fatal(err)
			}
			dirtyPts += e.Stats().LastDirtyRatio * float64(len(pts))
		}
		b.StopTimer()
		reportDirty(b, e, dirtyPts)
	})

	b.Run("scratch", func(b *testing.B) {
		cur := pl.Clone()
		dst := make([]tensor.Stress, len(pts))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := home.Add(delta)
			if i%2 == 1 {
				c = home
			}
			if err := (geom.Edit{Op: geom.EditMove, Index: target, TSV: geom.TSV{Center: c}}).Apply(cur, 2*st.RPrime); err != nil {
				b.Fatal(err)
			}
			an, err := core.New(st, cur, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := an.MapInto(context.Background(), dst, pts, core.ModeFull); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalFlushBatch measures a 10-edit batch coalesced
// into one flush — the ECO-loop steady state the service runs.
func BenchmarkIncrementalFlushBatch(b *testing.B) {
	st, pl, pts := benchChip(b)
	e, err := New(context.Background(), st, pl, pts, core.ModeFull, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Ten movable TSVs toggled together.
	delta := geom.Pt(2, 1)
	var targets []int
	for i := 0; i < pl.Len() && len(targets) < 10; i++ {
		moved := geom.Edit{Op: geom.EditMove, Index: i, TSV: geom.TSV{Center: pl.TSVs[i].Center.Add(delta)}}
		if moved.Validate(pl, 2*st.RPrime) == nil {
			targets = append(targets, i)
		}
	}
	homes := make([]geom.Point, len(targets))
	for k, i := range targets {
		homes[k] = pl.TSVs[i].Center
	}
	var dirtyPts float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, idx := range targets {
			c := homes[k].Add(delta)
			if i%2 == 1 {
				c = homes[k]
			}
			if err := e.Apply(geom.Edit{Op: geom.EditMove, Index: idx, TSV: geom.TSV{Center: c}}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := e.Flush(context.Background()); err != nil {
			b.Fatal(err)
		}
		dirtyPts += e.Stats().LastDirtyRatio * float64(len(pts))
	}
	b.StopTimer()
	reportDirty(b, e, dirtyPts)
}

// reportDirty reports the last flush's dirty-point ratio and the
// benchmark's wall time per re-evaluated point (Apply and rebuild
// included), given the dirty points summed over all b.N flushes.
func reportDirty(b *testing.B, e *Engine, dirtyPts float64) {
	b.ReportMetric(e.Stats().LastDirtyRatio, "dirty-ratio")
	if dirtyPts > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/dirtyPts, "ns/dirty-pt")
	}
}
