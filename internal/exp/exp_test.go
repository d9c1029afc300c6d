package exp

import (
	"bytes"
	"strings"
	"testing"

	"tsvstress/internal/material"
	"tsvstress/internal/metrics"
)

// The headline end-to-end claim of the paper, in Quick mode: PF must
// beat LS on every reported statistic of the two-TSV case at tight
// pitch, against our own FEM golden.
func TestPairCasePFBeatsLS(t *testing.T) {
	if testing.Short() {
		t.Skip("FEM-backed experiment")
	}
	pc, err := RunPairCase(Config{Quick: true}, material.BCB, 8)
	if err != nil {
		t.Fatal(err)
	}
	ls, pf, err := pc.Rows(metrics.SigmaXX)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("d=8 BCB sxx: LS avg=%.2f rate50=%.1f%% crit=%.1f%% | PF avg=%.2f rate50=%.1f%% crit=%.1f%%",
		ls.Avg.AvgError, ls.Thresh50.AvgErrorRate, ls.Critical50.AvgErrorRate,
		pf.Avg.AvgError, pf.Thresh50.AvgErrorRate, pf.Critical50.AvgErrorRate)
	if pf.Avg.AvgError >= ls.Avg.AvgError {
		t.Errorf("PF avg error %.3f not below LS %.3f", pf.Avg.AvgError, ls.Avg.AvgError)
	}
	if pf.Critical50.AvgErrorRate >= ls.Critical50.AvgErrorRate {
		t.Errorf("PF critical rate %.2f not below LS %.2f",
			pf.Critical50.AvgErrorRate, ls.Critical50.AvgErrorRate)
	}
	if ls.Critical50.N == 0 {
		t.Error("critical region has no points above threshold")
	}
	// Von Mises must improve too (Table 3 behaviour).
	lsv, pfv, err := pc.Rows(metrics.VonMises)
	if err != nil {
		t.Fatal(err)
	}
	if pfv.Avg.AvgError >= lsv.Avg.AvgError {
		t.Errorf("von Mises: PF %.3f not below LS %.3f", pfv.Avg.AvgError, lsv.Avg.AvgError)
	}
}

func TestLineScanShape(t *testing.T) {
	if testing.Short() {
		t.Skip("FEM-backed experiment")
	}
	sc, err := RunLineScan(Config{Quick: true}, material.BCB, 10, 20, 81)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.X) == 0 || len(sc.X) != len(sc.FEM) || len(sc.X) != len(sc.LS) {
		t.Fatalf("scan sizes: %d/%d/%d", len(sc.X), len(sc.FEM), len(sc.LS))
	}
	// Fig. 3 behaviour: LS overestimates σxx between the TSVs; count
	// the points between the vias where LS > FEM.
	over, n := 0, 0
	var sumLSErr, sumPFErr float64
	for i, x := range sc.X {
		if x > -5+3 && x < 5-3 {
			n++
			if sc.LS[i] > sc.FEM[i] {
				over++
			}
		}
		sumLSErr += abs(sc.LS[i] - sc.FEM[i])
		sumPFErr += abs(sc.PF[i] - sc.FEM[i])
	}
	if n == 0 || float64(over) < 0.8*float64(n) {
		t.Errorf("LS should overestimate between TSVs: %d/%d points", over, n)
	}
	if sumPFErr >= sumLSErr {
		t.Errorf("PF scan error %.2f not below LS %.2f", sumPFErr, sumLSErr)
	}
	var buf bytes.Buffer
	if err := sc.Write(&buf, "fig3"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FEM") {
		t.Error("plot legend missing")
	}
}

func TestTable6QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	// Only cases 1, 5, 7 in the unit test to keep it fast; the
	// structural claims: AR is finite and positive, and the pair count
	// scales with TSV count and density.
	for _, rc := range []RuntimeCase{
		{"1", 100, 1e-2, 20000},
		{"5", 100, 0.25e-2, 20000},
	} {
		r, err := RunRuntimeCase(rc, 11)
		if err != nil {
			t.Fatal(err)
		}
		if r.LSTime <= 0 || r.FullTime < r.LSTime {
			t.Errorf("case %s: times LS=%v full=%v", rc.Name, r.LSTime, r.FullTime)
		}
		if r.AR < 0 {
			t.Errorf("case %s: AR = %v", rc.Name, r.AR)
		}
		// The masked sample drops the points inside TSV footprints.
		if r.MaskedPoints <= 0 || r.MaskedPoints >= rc.NumPoints {
			t.Errorf("case %s: %d of %d points survive the footprint mask", rc.Name, r.MaskedPoints, rc.NumPoints)
		}
		if r.MaskedLSTime <= 0 || r.MaskedFullTime <= 0 {
			t.Errorf("case %s: masked times LS=%v full=%v", rc.Name, r.MaskedLSTime, r.MaskedFullTime)
		}
		t.Logf("case %s: LS=%v PF=%v AR=%.0f%% pairs=%d; masked %d pts LS=%v PF=%v AR=%.0f%%", rc.Name,
			r.LSTime, r.FullTime, r.AR, r.PairCount, r.MaskedPoints, r.MaskedLSTime, r.MaskedFullTime, r.MaskedAR)
	}
	var buf bytes.Buffer
	r, err := RunRuntimeCase(RuntimeCase{"t", 50, 1e-2, 5000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTable6(&buf, []*RuntimeResult{r}); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"AR (%)", "Masked AR (%)"} {
		if !strings.Contains(buf.String(), col) {
			t.Errorf("table column %q missing", col)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.FEMH != 0.25 || c.PointSpacing != 0.25 || c.Margin != 12 {
		t.Errorf("defaults = %+v", c)
	}
	q := Config{Quick: true}.withDefaults()
	if q.FEMH != 0.5 || q.PointSpacing != 0.5 {
		t.Errorf("quick defaults = %+v", q)
	}
	if _, ok := Liner("bcb"); !ok {
		t.Error("bcb liner missing")
	}
	if _, ok := Liner("sio2"); !ok {
		t.Error("sio2 liner missing")
	}
	if _, ok := Liner("nope"); ok {
		t.Error("unknown liner should fail")
	}
}

func TestPaperReferenceTablesComplete(t *testing.T) {
	for _, tb := range []PaperTable{PaperTable1, PaperTable3, PaperTable4, PaperTable5} {
		for _, d := range Pitches {
			if _, ok := tb.LS[d]; !ok {
				t.Errorf("%s: missing LS pitch %g", tb.Title, d)
			}
			if _, ok := tb.PF[d]; !ok {
				t.Errorf("%s: missing PF pitch %g", tb.Title, d)
			}
		}
		// PF must beat LS in the published critical-region rates — a
		// transcription sanity check.
		for d, ls := range tb.LS {
			if pf := tb.PF[d]; pf.CritRate >= ls.CritRate {
				t.Errorf("%s d=%g: paper PF rate %.2f >= LS %.2f?", tb.Title, d, pf.CritRate, ls.CritRate)
			}
		}
	}
	if len(PaperTable2) != 4 || len(PaperTable6AR) != 7 {
		t.Error("paper tables 2/6 incomplete")
	}
}
