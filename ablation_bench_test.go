package tsvstress

// Ablation benchmarks for the framework's design choices (DESIGN.md):
// the interactive-series truncation MMax and the Stage II pair cutoffs.
// Each bench reports the accuracy cost of the cheaper variant as custom
// metrics next to its speed.

import (
	"math"
	"testing"
)

func benchPlacement(b *testing.B) *Placement {
	b.Helper()
	return ArrayPlacement(8, 8, 10)
}

// BenchmarkAblationMMax sweeps the interactive-series truncation: the
// paper uses MMax = 10; lower truncations are faster but lose accuracy
// at tight pitch. The reported delta is against MMax = 20 at a point
// near the victim boundary of an 8 µm pair.
func BenchmarkAblationMMax(b *testing.B) {
	pl := PairPlacement(8)
	ref, err := NewAnalyzer(Baseline(BCB), pl, AnalyzerOptions{Workers: 1, MMax: 20})
	if err != nil {
		b.Fatal(err)
	}
	p := Pt(0.8, 0.5) // ~3.2 µm from the left TSV center
	refS := ref.StressAt(p)
	for _, mmax := range []int{4, 6, 10, 14} {
		b.Run(benchName("mmax", mmax), func(b *testing.B) {
			an, err := NewAnalyzer(Baseline(BCB), pl, AnalyzerOptions{Workers: 1, MMax: mmax})
			if err != nil {
				b.Fatal(err)
			}
			s := an.StressAt(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = an.StressAt(p)
			}
			b.ReportMetric(math.Abs(s.XX-refS.XX)+math.Abs(s.YY-refS.YY)+math.Abs(s.XY-refS.XY), "trunc-MPa")
		})
	}
}

// BenchmarkAblationPairCutoff sweeps the Stage II pair-pitch cutoff on
// a dense array: a tighter cutoff prunes pair rounds (reported) and
// changes the stress by the also-reported amount relative to the
// paper's 25 µm setting.
func BenchmarkAblationPairCutoff(b *testing.B) {
	pl := benchPlacement(b)
	ref, err := NewAnalyzer(Baseline(BCB), pl, AnalyzerOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := Pt(5, 5)
	refS := ref.StressAt(p)
	for _, cutoff := range []float64{10.5, 15, 25} {
		b.Run(benchName("pitchCutoff", int(cutoff)), func(b *testing.B) {
			an, err := NewAnalyzer(Baseline(BCB), pl, AnalyzerOptions{Workers: 1, PairPitchCutoff: cutoff})
			if err != nil {
				b.Fatal(err)
			}
			s := an.StressAt(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = an.StressAt(p)
			}
			b.ReportMetric(float64(an.NumPairRounds()), "rounds")
			b.ReportMetric(math.Abs(s.XX-refS.XX)+math.Abs(s.YY-refS.YY)+math.Abs(s.XY-refS.XY), "delta-MPa")
		})
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
