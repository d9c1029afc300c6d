package core

import (
	"context"
	"math"
	"testing"

	"tsvstress/internal/cpuid"
	"tsvstress/internal/field"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// TestMapsBitIdenticalAcrossLaneKernels maps an unmasked grid over 1000
// random TSVs in LS and Full mode twice, once with the AVX-512 lane
// kernels and once with cpuid.AVX512 cleared so the AVX2 kernels take
// every block, and requires bit-identical maps: both kernel tiers run
// the same operations in the same order.
func TestMapsBitIdenticalAcrossLaneKernels(t *testing.T) {
	if !cpuid.AVX512 {
		t.Skip("cpuid.AVX512 is false (no AVX512F, or the OS does not save the opmask and ZMM state, or a purego build): nothing to compare")
	}
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(1000, 1e-2, 2*st.RPrime+1, 27)
	if err != nil {
		t.Fatal(err)
	}
	an, err := New(st, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := field.NewGrid(pl.Bounds(5), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Points()
	for _, mode := range []Mode{ModeLS, ModeFull} {
		maps := [2][]tensor.Stress{}
		for k, avx512 := range []bool{true, false} {
			cpuid.AVX512 = avx512
			maps[k] = make([]tensor.Stress, len(pts))
			err := an.MapInto(context.Background(), maps[k], pts, mode)
			cpuid.AVX512 = true
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range pts {
			a, b := maps[0][i], maps[1][i]
			if math.Float64bits(a.XX) != math.Float64bits(b.XX) || math.Float64bits(a.YY) != math.Float64bits(b.YY) ||
				math.Float64bits(a.XY) != math.Float64bits(b.XY) {
				t.Fatalf("mode %v point %d %v: AVX-512 %+v vs AVX2 %+v", mode, i, pts[i], a, b)
			}
		}
	}
}
