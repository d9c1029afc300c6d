package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/report"
	"tsvstress/internal/tensor"
)

// RuntimeCase is one column of Table 6 (Appendix A.3).
type RuntimeCase struct {
	Name      string
	NumTSV    int
	Density   float64 // µm⁻²
	NumPoints int
}

// Table6Cases returns the paper's seven scalability cases; in Quick
// mode the point counts are scaled down 10×.
func Table6Cases(quick bool) []RuntimeCase {
	pts := func(m float64) int {
		if quick {
			return int(m * 50_000)
		}
		return int(m * 500_000)
	}
	return []RuntimeCase{
		{"1", 100, 1e-2, pts(1)},
		{"2", 500, 1e-2, pts(1)},
		{"3", 1000, 1e-2, pts(1)},
		{"4", 100, 0.69e-2, pts(1)},
		{"5", 100, 0.25e-2, pts(1)},
		{"6", 100, 1e-2, pts(2)},
		{"7", 100, 1e-2, pts(4)},
	}
}

// RuntimeResult is the measured outcome of one case.
type RuntimeResult struct {
	Case      RuntimeCase
	LSTime    time.Duration
	FullTime  time.Duration
	PairCount int
	// AR is the paper's metric: additional run time of the proposed
	// framework over the linear superposition run time, in percent.
	AR float64
	// The same measurement over the sample with every point inside a
	// TSV footprint removed (field.OutsideTSVs), the device-layer
	// silicon the paper's error metrics cover (DESIGN.md §2).
	MaskedPoints   int
	MaskedLSTime   time.Duration
	MaskedFullTime time.Duration
	MaskedAR       float64
}

// RunRuntimeCase measures LS and full-framework map times on a random
// placement with the case's density, over the uniform point sample and
// again over its footprint-masked subset.
func RunRuntimeCase(rc RuntimeCase, seed int64) (*RuntimeResult, error) {
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(rc.NumTSV, rc.Density, 2*st.RPrime+1, seed)
	if err != nil {
		return nil, err
	}
	an, err := core.New(st, pl, core.Options{})
	if err != nil {
		return nil, err
	}
	// Simulation points: uniform over the placement bounding box.
	rng := rand.New(rand.NewSource(seed + 1))
	b := pl.Bounds(5)
	pts := make([]geom.Point, rc.NumPoints)
	for i := range pts {
		pts[i] = geom.Pt(b.Min.X+rng.Float64()*b.W(), b.Min.Y+rng.Float64()*b.H())
	}
	res := &RuntimeResult{Case: rc, PairCount: an.NumPairRounds()}
	if res.LSTime, res.FullTime, err = timeMaps(an, pts); err != nil {
		return nil, err
	}
	res.AR = additionalRuntime(res.LSTime, res.FullTime)
	masked := field.Masked(pts, field.OutsideTSVs(pl, st.RPrime))
	res.MaskedPoints = len(masked)
	if res.MaskedLSTime, res.MaskedFullTime, err = timeMaps(an, masked); err != nil {
		return nil, err
	}
	res.MaskedAR = additionalRuntime(res.MaskedLSTime, res.MaskedFullTime)
	return res, nil
}

// timedMaps is the number of timed LS and Full maps per case: Table 6
// reports the median of each.
const timedMaps = 11

// timeMaps returns the median LS and Full MapInto times over pts. One
// untimed map per mode first warms the tiling pool and the scratch
// buffers, so neither mode pays the first call's setup; the timed maps
// then alternate LS and Full, so a drift in host speed lands on both.
// One destination buffer serves every sweep: the timing measures
// evaluation, not slice churn.
func timeMaps(an *core.Analyzer, pts []geom.Point) (ls, full time.Duration, err error) {
	dst := make([]tensor.Stress, len(pts))
	var times [2][timedMaps]time.Duration
	for rep := -1; rep < timedMaps; rep++ {
		for m, mode := range []core.Mode{core.ModeLS, core.ModeFull} {
			t0 := time.Now()
			if err := an.MapInto(context.Background(), dst, pts, mode); err != nil {
				return 0, 0, err
			}
			if rep >= 0 {
				times[m][rep] = time.Since(t0)
			}
		}
	}
	for m := range times {
		slices.Sort(times[m][:])
	}
	return times[0][timedMaps/2], times[1][timedMaps/2], nil
}

// additionalRuntime is the paper's AR in percent (0 when LS took no
// measurable time).
func additionalRuntime(ls, full time.Duration) float64 {
	if ls <= 0 {
		return 0
	}
	return 100 * float64(full-ls) / float64(ls)
}

// RunTable6 measures all cases.
func RunTable6(quick bool, seed int64) ([]*RuntimeResult, error) {
	var out []*RuntimeResult
	for _, rc := range Table6Cases(quick) {
		r, err := RunRuntimeCase(rc, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteTable6 renders the scalability table.
func WriteTable6(w io.Writer, results []*RuntimeResult) error {
	if _, err := fmt.Fprintf(w, "### Table 6 — run time of the proposed framework\n\n"); err != nil {
		return err
	}
	tb := &report.Table{Header: []string{
		"Case", "TSV #", "Density (1e-2/µm²)", "Points", "LS time", "PF time", "Pair rounds", "AR (%)",
		"Masked points", "Masked LS time", "Masked PF time", "Masked AR (%)",
	}}
	for _, r := range results {
		tb.AddRow(
			r.Case.Name,
			fmt.Sprintf("%d", r.Case.NumTSV),
			fmt.Sprintf("%.2f", r.Case.Density*1e2),
			fmt.Sprintf("%d", r.Case.NumPoints),
			r.LSTime.Round(time.Millisecond).String(),
			r.FullTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", r.PairCount),
			fmt.Sprintf("%.0f", r.AR),
			fmt.Sprintf("%d", r.MaskedPoints),
			r.MaskedLSTime.Round(time.Millisecond).String(),
			r.MaskedFullTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.MaskedAR),
		)
	}
	if err := tb.WriteMarkdown(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
