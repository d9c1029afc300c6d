package interact

// Test fixture: the paper's Eq. (18) series form and its printed
// Appendix-A.4 transfer functions, kept to cross-check the solver's
// unit solutions (TestEq18FormMatchesSolver, TestVerbatimHComparison).

import (
	"math"

	"tsvstress/internal/tensor"
)

// HSub holds the substrate-region transfer functions of the paper's
// Eq. (18) for one harmonic: h33, h34, h36, h38 (h31 = h32 = h35 =
// h37 = 0 in the substrate). They depend only on the TSV structure.
type HSub struct {
	H33, H34, H36, H38 float64
}

// DerivedH returns the Eq. (18) substrate transfer functions implied by
// the solver's unit solution for harmonic m. The identification (see
// the package DESIGN notes) is
//
//	F(m)  = (m−1)·â_{−m}          (scattered a coefficient, unit incident)
//	h33 = −(2+m)F(m)             (so h33 = −(m−1)(2+m)·â_{−m})
//	h34 = −(m−1)·b̂_{−m−2}
//	h36, h38 follow from the σθθ and σrθ profiles.
func (mo *Model) DerivedH(m int) HSub {
	u := mo.units[m-2]
	fm := float64(m)
	// Scattered profiles: σrr = (2+m)a ρ^{−m} − b ρ^{−m−2} (×cos mθ),
	// σθθ = (2−m)a ρ^{−m} + b ρ^{−m−2}, σrθ = m a ρ^{−m} − b ρ^{−m−2}
	// (×sin mθ). Matching Eq. (18)'s substrate form with incident
	// scale −K(m−1)/(d̂^m R′²):
	a, b := u.sub.ANeg, u.sub.BNeg
	return HSub{
		H33: -(fm - 1) * (2 + fm) * a,
		H34: -(fm - 1) * b,
		H36: -(fm - 1) * (2 - fm) * a,
		H38: -(fm - 1) * fm * a,
	}
}

// PairPolarEq18 evaluates the substrate interactive stress in MPa using
// the Eq. (18) series form with the given transfer functions; it must agree
// with PairPolar for r ≥ R′ when fed DerivedH, so the verbatim
// Appendix-A.4 coefficients can be compared on equal footing.
func (mo *Model) PairPolarEq18(h func(m int) HSub, r, theta, d float64) tensor.Polar {
	s := mo.Struct
	K := mo.Lame.K
	rp2 := s.RPrime * s.RPrime
	var out tensor.Polar
	for m := 2; m <= mo.MMax; m++ {
		hm := h(m)
		fm := float64(m)
		g := math.Pow(rp2/(r*d), fm) // (R′²/(rd))^m
		q := rp2 / (r * r)
		cm, sm := math.Cos(fm*theta), math.Sin(fm*theta)
		out.RR += K / rp2 * cm * g * (hm.H33 - q*hm.H34)
		out.TT += K / rp2 * cm * g * (hm.H36 + q*hm.H34)
		out.RT += K / rp2 * sm * g * (hm.H38 - q*hm.H34)
	}
	return out
}

// PaperA1A2 returns the dimensionless a1, a2 constants of Appendix A.4,
// verbatim.
func (mo *Model) PaperA1A2() (a1, a2 float64) {
	c, l := mo.Struct.Body, mo.Struct.Liner
	r := c.E / l.E
	a1 = (1 + r*(3-l.Nu)/(1+c.Nu)) / (1 - r*(1+l.Nu)/(1+c.Nu))
	a2 = (1 - r*(3-l.Nu)/(3-c.Nu)) / (1 + r*(1+l.Nu)/(3-c.Nu))
	return a1, a2
}

// VerbatimH evaluates the Appendix-A.4 closed forms for the substrate
// transfer functions, exactly as printed in the paper (including its
// G1/G3 bracket structure, which is OCR-noisy in the source text), for
// cross-checking against DerivedH; the solver path is authoritative.
func (mo *Model) VerbatimH(m int) HSub {
	s := mo.Struct
	l, sub := s.Liner, s.Substrate
	El, Es := l.E, sub.E
	vl, vs := l.Nu, sub.Nu
	k := s.K()
	k2 := k * k
	a1, a2 := mo.PaperA1A2()

	pow := math.Pow
	bracket := func(fm float64) float64 { // a1a2k⁴ − a1k^{2m+2} − a2k^{2−2m} + (1−k²)²(m²−1) + 1
		return a1*a2*k2*k2 - a1*pow(k, 2*fm+2) - a2*pow(k, 2-2*fm) +
			(1-k2)*(1-k2)*(fm*fm-1) + 1
	}
	g1 := func(fm float64) float64 {
		t1 := (4*a1*pow(k, 2*fm+2) - 4) / El
		t2 := ((1+vl)/El - (1+vs)/Es) * bracket(fm)
		t3 := (4*a2*pow(k, 2-2*fm) - 4) / El
		t4 := ((1+vl)/El + (3-vs)/Es) * bracket(fm)
		return 16*(k2-1)*(k2-1)/(El*El) + (t1+t2)*(t3+t4)/(fm*fm-1)
	}
	g2 := func(fm float64) float64 {
		return 16 / (El * Es) * (1 - k2) * bracket(fm)
	}
	g3 := func(fm float64) float64 {
		t1 := (4*a1*pow(k, 2-2*fm) - 4) / El
		t2 := ((1+vl)/El - (1+vs)/Es) *
			(a1*a2*k2*k2 - a1*pow(k, 2-2*fm) - a2*pow(k, 2*fm+2) + (1-k2)*(1-k2)*(fm*fm-1) + 1)
		t3 := (4*a2*pow(k, 2*fm+2) - 4) / El
		t4 := ((1+vl)/El - (1+vs)/Es) *
			(a1*a2*k2*k2 - a1*pow(k, 2-2*fm) - a2*pow(k, 2*fm+2) + (1-k2)*(1-k2)*(fm*fm-1) + 1)
		return 16*(k2-1)*(k2-1)/(El*El) + (t1+t2)*(t3+t4)/(fm*fm-1)
	}
	F := func(mm int) float64 {
		fm := float64(mm)
		if mm <= -2 {
			return g2(fm) / g1(fm)
		}
		return g3(fm) / g1(-fm)
	}
	fm := float64(m)
	return HSub{
		H33: -(2 + fm) * F(m),
		H34: F(-m) - (fm+1)*F(m),
		H36: (fm - 2) * F(m),
		H38: -fm * F(m),
	}
}
