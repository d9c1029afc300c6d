package interact

import (
	"math"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// TestCachedPairEvalMatchesDirect pins the pointwise evaluator, which
// folds the pitch into its radial recurrence, against the general
// PairStress path outside the victim.
func TestCachedPairEvalMatchesDirect(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	vic, agg := geom.Pt(-5, 0), geom.Pt(5, 0)
	pe := mo.NewPairEval(vic, agg)
	for _, p := range []geom.Point{geom.Pt(0, 4), geom.Pt(-9, 2), geom.Pt(3, -7), geom.Pt(-5, 3.1)} {
		got := pe.StressAt(p)
		want := mo.PairStress(p, vic, agg)
		for _, d := range []float64{got.XX - want.XX, got.YY - want.YY, got.XY - want.XY} {
			if math.Abs(d) > 1e-9 {
				t.Errorf("at %v: cached %v vs direct %v", p, got, want)
				break
			}
		}
	}
}

// TestPackRoundsMatchesPerRoundSum pins the aggregated per-harmonic
// evaluation against summing PairEval.StressAt round by round,
// including the interior fallback, and the packed rounds' own
// round-by-round sum (StressAtByRound) against that sum bit for bit.
func TestPackRoundsMatchesPerRoundSum(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	vic := geom.Pt(0, 0)
	aggs := []geom.Point{geom.Pt(8, 0), geom.Pt(0, 10), geom.Pt(-7, 7), geom.Pt(12, -5)}
	evs := make([]PairEval, 0, len(aggs))
	for _, a := range aggs {
		evs = append(evs, mo.NewPairEval(vic, a))
	}
	vr := mo.PackRounds(vic, aggs)
	if vr == nil || vr.NumRounds() != len(aggs) {
		t.Fatalf("PackRounds kept %v rounds", vr)
	}
	if vr.Vic() != vic {
		t.Fatalf("Vic = %v", vr.Vic())
	}
	pts := []geom.Point{
		geom.Pt(4, 3), geom.Pt(-6, 1), geom.Pt(0.5, -0.2) /* inside victim */, geom.Pt(20, 20),
		geom.Pt(3.0001, 0), geom.Pt(0, 0), // footprint boundary region and center
	}
	for _, p := range pts {
		var want tensor.Stress
		for k := range evs {
			want = want.Add(evs[k].StressAt(p))
		}
		if got := vr.StressAtByRound(p); got != want {
			t.Errorf("at %v: StressAtByRound %v vs per-round %v", p, got, want)
		}
		var got tensor.Stress
		vr.AccumulateAt(p.X, p.Y, &got)
		for _, d := range []float64{got.XX - want.XX, got.YY - want.YY, got.XY - want.XY} {
			if math.Abs(d) > 1e-9 {
				t.Errorf("at %v: packed %v vs per-round %v", p, got, want)
				break
			}
		}
	}
}

// TestPackRoundsEmpty covers the degenerate inputs.
func TestPackRoundsEmpty(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	if vr := mo.PackRounds(geom.Pt(0, 0), nil); vr != nil {
		t.Error("PackRounds with no aggressors must be nil")
	}
	// Zero pitch: the aggressor sits on the victim center.
	if vr := mo.PackRounds(geom.Pt(1, 2), []geom.Point{geom.Pt(1, 2)}); vr != nil {
		t.Error("all-degenerate round set must pack to nil")
	}
	vr := mo.PackRounds(geom.Pt(1, 2), []geom.Point{geom.Pt(1, 2), geom.Pt(11, 2)})
	if vr == nil || vr.NumRounds() != 1 {
		t.Fatalf("degenerate round not dropped: %+v", vr)
	}
	p := geom.Pt(5, 9)
	want := mo.NewPairEval(geom.Pt(1, 2), geom.Pt(11, 2))
	if got := vr.StressAtByRound(p); got != want.StressAt(p) {
		t.Errorf("StressAtByRound %v, the kept round alone %v", got, want.StressAt(p))
	}
}
