// Package interact implements the analytical interactive-stress model of
// Section 3.3 of the paper: the stress induced by the elastic-property
// mismatch of a victim TSV sitting in the stress field of an aggressor
// TSV.
//
// For each Fourier harmonic m = 2…MMax of the aggressor's ideal field
// expanded about the victim center, the scattered (substrate) and
// transmitted (liner, body) potential coefficients solve an 8×8 real
// linear system expressing continuity of the traction combination
// σrr − iσrθ and the displacement combination ur + i uθ at the
// liner/substrate interface Γ1 (r = R′) and the body/liner interface Γ2
// (r = R) — precisely the boundary conditions (14)–(17) of the paper.
//
// The right-hand side scales as K/d^m, so the unit solutions depend only
// on the TSV structure (the paper's observation that its h_ij(m) are
// placement independent); they are computed once per Model and reused
// for every pair and every pitch.
package interact

import (
	"fmt"
	"math"
	"sync"

	"tsvstress/internal/geom"
	"tsvstress/internal/lame"
	"tsvstress/internal/linalg"
	"tsvstress/internal/material"
	"tsvstress/internal/potential"
	"tsvstress/internal/tensor"
)

// DefaultMMax is the series truncation used by the paper ("9 terms in
// practice", m = 2…10).
const DefaultMMax = 10

// unitSol holds the per-region potential coefficients of one harmonic
// for a unit incident coefficient b̂_{m−2} = 1.
type unitSol struct {
	sub   potential.HarmCoeffs // scattered field, exterior coefficients
	liner potential.HarmCoeffs // transmitted field in the liner ring
	core  potential.HarmCoeffs // transmitted field in the body
}

// Model is the interactive-stress model for one TSV structure. It is
// immutable after New and safe for concurrent use.
type Model struct {
	Struct material.Structure
	// Plane is the 2D idealization (the paper uses plane stress).
	Plane material.Plane
	// Lame is the single-TSV solution providing the decay constant K.
	Lame *lame.Solution
	// MMax is the highest harmonic retained (inclusive).
	MMax int

	units []unitSol // index m−2
	// inner[m−2] holds the pitch-independent radial profiles of the
	// victim interior: the unit transmitted field minus the unit incident
	// field, per region.
	inner []innerCoeffs

	// Pitch-keyed cache of scattered-coefficient slices shared by every
	// pair round at the same pitch (the transfer coefficients depend on
	// the structure and the pitch only). Keyed by the float64 bit
	// pattern of the pitch, so sharing is exact and parity-safe: on
	// regular arrays the handful of distinct center-to-center distances
	// collapses thousands of per-round allocations to a few entries.
	cacheMu    sync.Mutex
	coeffCache map[uint64]pairCoeffs
	cacheHits  int
}

// innerCoeffs is one harmonic's interior profile coefficients for a unit
// incident coefficient: u.liner − {BPos: 1} and u.core − {BPos: 1}.
// PairPolar scales both by IncidentCoeff(m−2, K, R′, d), so every round
// at a victim shares them.
type innerCoeffs struct {
	liner, core potential.HarmCoeffs
}

// pairCoeffs is one cached entry: the per-harmonic scattered substrate
// coefficients of a round at a fixed pitch (index m−2). The slices are
// shared across rounds and must never be mutated.
type pairCoeffs struct {
	a, b []float64
}

// New builds the plane-stress model (the paper's device-layer setting),
// solving the per-harmonic boundary systems for m = 2…mmax. Pass
// mmax ≤ 0 for DefaultMMax.
func New(s material.Structure, mmax int) (*Model, error) {
	return NewPlane(s, mmax, material.PlaneStress)
}

// NewPlane builds the model for either plane mode; plane strain swaps
// the Kolosov constants (3−4ν) and the single-TSV load constant K.
func NewPlane(s material.Structure, mmax int, plane material.Plane) (*Model, error) {
	if mmax <= 0 {
		mmax = DefaultMMax
	}
	if mmax < 2 {
		return nil, fmt.Errorf("interact: mmax %d must be ≥ 2", mmax)
	}
	sol, err := lame.SolvePlane(s, plane)
	if err != nil {
		return nil, err
	}
	m := &Model{Struct: s, Plane: plane, Lame: sol, MMax: mmax,
		coeffCache: make(map[uint64]pairCoeffs)}
	k := s.K() // scaled body radius (R′ = 1)
	if k <= 0 || k >= 1 {
		return nil, fmt.Errorf("interact: radius ratio k=%g outside (0,1)", k)
	}
	for h := 2; h <= mmax; h++ {
		u, err := solveHarmonic(s, h, k, plane)
		if err != nil {
			return nil, fmt.Errorf("interact: harmonic %d: %w", h, err)
		}
		m.units = append(m.units, u)
		inc := potential.HarmCoeffs{BPos: -1}
		m.inner = append(m.inner, innerCoeffs{liner: u.liner.Add(inc), core: u.core.Add(inc)})
	}
	return m, nil
}

// Unknown ordering in the 8×8 system.
const (
	iASubNeg = iota // substrate a_{−m}
	iBSubNeg        // substrate b_{−m−2}
	iALinPos        // liner a_m
	iALinNeg        // liner a_{−m}
	iBLinPos        // liner b_{m−2}
	iBLinNeg        // liner b_{−m−2}
	iACorPos        // core a_m
	iBCorPos        // core b_{m−2}
	nUnknown
)

// regionSlot maps an unknown index to its region's HarmCoeffs with a
// unit value in the right slot. Region: 0 = substrate, 1 = liner,
// 2 = core.
func regionSlot(j int) (region int, c potential.HarmCoeffs) {
	switch j {
	case iASubNeg:
		return 0, potential.HarmCoeffs{ANeg: 1}
	case iBSubNeg:
		return 0, potential.HarmCoeffs{BNeg: 1}
	case iALinPos:
		return 1, potential.HarmCoeffs{APos: 1}
	case iALinNeg:
		return 1, potential.HarmCoeffs{ANeg: 1}
	case iBLinPos:
		return 1, potential.HarmCoeffs{BPos: 1}
	case iBLinNeg:
		return 1, potential.HarmCoeffs{BNeg: 1}
	case iACorPos:
		return 2, potential.HarmCoeffs{APos: 1}
	case iBCorPos:
		return 2, potential.HarmCoeffs{BPos: 1}
	}
	panic("interact: bad unknown index")
}

// solveHarmonic assembles and solves the boundary system of harmonic m
// for a unit incident coefficient b̂_{m−2} = 1.
func solveHarmonic(s material.Structure, m int, k float64, plane material.Plane) (unitSol, error) {
	c, l, sub := s.Body, s.Liner, s.Substrate
	twoMu := [3]float64{2 * sub.Mu(), 2 * l.Mu(), 2 * c.Mu()}
	kappa := [3]float64{sub.Kappa(plane), l.Kappa(plane), c.Kappa(plane)}

	// Equation functionals: value of each equation's LHS for a unit
	// unknown. Signs: liner contributes +, substrate and core −.
	// Eq order: [tΓ1+, tΓ1−, dΓ1+, dΓ1−, tΓ2+, tΓ2−, dΓ2+, dΓ2−].
	a := linalg.NewMatrix(nUnknown, nUnknown)
	for j := 0; j < nUnknown; j++ {
		region, hc := regionSlot(j)
		sign := 1.0
		if region != 1 {
			sign = -1.0
		}
		// Γ1 equations involve substrate (region 0) and liner (1).
		if region == 0 || region == 1 {
			mu, kap := twoMu[region], kappa[region]
			a.AddTo(0, j, sign*hc.TractionPlus(m, 1))
			a.AddTo(1, j, sign*hc.TractionMinus(m, 1))
			a.AddTo(2, j, sign*hc.DispPlus(m, 1, kap)/mu)
			a.AddTo(3, j, sign*hc.DispMinus(m, 1, kap)/mu)
		}
		// Γ2 equations involve liner (1) and core (2).
		if region == 1 || region == 2 {
			mu, kap := twoMu[region], kappa[region]
			a.AddTo(4, j, sign*hc.TractionPlus(m, k))
			a.AddTo(5, j, sign*hc.TractionMinus(m, k))
			a.AddTo(6, j, sign*hc.DispPlus(m, k, kap)/mu)
			a.AddTo(7, j, sign*hc.DispMinus(m, k, kap)/mu)
		}
	}

	// RHS: incident field (b̂_{m−2} = 1) on the substrate side of Γ1.
	inc := potential.HarmCoeffs{BPos: 1}
	b := make([]float64, nUnknown)
	b[0] = inc.TractionPlus(m, 1)
	b[1] = inc.TractionMinus(m, 1)
	b[2] = inc.DispPlus(m, 1, kappa[0]) / twoMu[0]
	b[3] = inc.DispMinus(m, 1, kappa[0]) / twoMu[0]

	x, err := linalg.Solve(a, b)
	if err != nil {
		return unitSol{}, err
	}
	return unitSol{
		sub:   potential.HarmCoeffs{ANeg: x[iASubNeg], BNeg: x[iBSubNeg]},
		liner: potential.HarmCoeffs{APos: x[iALinPos], ANeg: x[iALinNeg], BPos: x[iBLinPos], BNeg: x[iBLinNeg]},
		core:  potential.HarmCoeffs{APos: x[iACorPos], BPos: x[iBCorPos]},
	}, nil
}

// MinPairPitch returns the smallest admissible pitch in µm (touching
// TSVs).
func (mo *Model) MinPairPitch() float64 { return 2 * mo.Struct.RPrime }

// PairPolar returns the interactive stress of one aggressor→victim
// round in the victim-centered polar frame whose θ = 0 axis points at
// the aggressor: r is the distance from the victim center in µm, theta
// the local polar angle, d the pair pitch in µm.
//
// In the substrate (r ≥ R′) this is the scattered field; inside the
// victim (liner/body) it is the transmitted field minus the aggressor's
// incident field, i.e. always "true field − linear-superposition field".
func (mo *Model) PairPolar(r, theta, d float64) tensor.Polar {
	s := mo.Struct
	rho := r / s.RPrime
	k := s.K()
	var out tensor.Polar
	for m := 2; m <= mo.MMax; m++ {
		scale := potential.IncidentCoeff(m-2, mo.Lame.K, s.RPrime, d)
		u := mo.units[m-2]
		var prof potential.PolarHarm
		switch {
		case rho >= 1:
			prof = u.sub.Scale(scale).StressProfiles(m, rho)
		case rho >= k:
			tr := u.liner.Scale(scale).StressProfiles(m, rho)
			in := potential.HarmCoeffs{BPos: scale}.StressProfiles(m, rho)
			prof = potential.PolarHarm{RR: tr.RR - in.RR, TT: tr.TT - in.TT, RT: tr.RT - in.RT}
		default:
			tr := u.core.Scale(scale).StressProfiles(m, rho)
			in := potential.HarmCoeffs{BPos: scale}.StressProfiles(m, rho)
			prof = potential.PolarHarm{RR: tr.RR - in.RR, TT: tr.TT - in.TT, RT: tr.RT - in.RT}
		}
		cm, sm := math.Cos(float64(m)*theta), math.Sin(float64(m)*theta)
		out.RR += prof.RR * cm
		out.TT += prof.TT * cm
		out.RT += prof.RT * sm
	}
	return out
}

// PairStress returns the interactive stress in MPa (Cartesian, global
// axes) at point p for the round with victim TSV centered at vic and
// aggressor at agg. The field is evaluated in the victim frame whose
// θ = 0 axis points at the aggressor and rotated back. A degenerate
// round (agg == vic) contributes the zero tensor.
//
// At the victim center (r = 0) the polar frame is undefined, so the
// limit is returned instead: every body profile term carries ρ^m or
// ρ^{m−2} with m ≥ 2, and only the m = 2 term b_0·ρ^0 survives. Along
// the axis that gives σrr = −B, σθθ = B, σrθ = 0, with B the body's
// transmitted-minus-incident b_0 coefficient at this pitch.
func (mo *Model) PairStress(p, vic, agg geom.Point) tensor.Stress {
	axis := agg.Sub(vic)
	d := axis.Norm()
	if d <= 0 {
		return tensor.Stress{}
	}
	rel := p.Sub(vic)
	r := rel.Norm()
	if r == 0 {
		b := mo.inner[0].core.BPos * potential.IncidentCoeff(0, mo.Lame.K, mo.Struct.RPrime, d)
		return tensor.Polar{RR: -b, TT: b}.ToCartesian(axis.Angle())
	}
	phiGlobal := rel.Angle()               // angle of the point in global axes
	thetaLocal := phiGlobal - axis.Angle() // local frame: aggressor at θ=0
	pol := mo.PairPolar(r, thetaLocal, d)
	return pol.ToCartesian(phiGlobal)
}

// BoundaryResiduals numerically verifies the interface conditions for a
// given pitch d: it returns the maximum traction jump (MPa) and
// displacement jump (µm) across Γ1 and Γ2, sampled at nTheta angles.
// Both should be at round-off level; they are exported as a diagnostic
// of solver health.
func (mo *Model) BoundaryResiduals(d float64, nTheta int) (tracJump, dispJump float64) {
	if nTheta < 4 {
		nTheta = 16
	}
	s := mo.Struct
	const eps = 1e-9
	for i := 0; i < nTheta; i++ {
		th := 2 * math.Pi * float64(i) / float64(nTheta)
		// Γ1: substrate side = scattered + incident; liner side =
		// transmitted − incident + incident = PairPolar + incident on
		// both sides — so PairPolar continuity in (RR, RT) plus
		// incident continuity (trivially continuous) suffices.
		out := mo.PairPolar(s.RPrime*(1+eps), th, d)
		in := mo.PairPolar(s.RPrime*(1-eps), th, d)
		// Add the incident field on the liner side to compare total
		// tractions: PairPolar inside = transmitted − incident, and
		// outside = scattered; totals are scattered+incident vs
		// transmitted, so jump = (out + incident) − (in + incident).
		if j := math.Abs(out.RR - in.RR); j > tracJump {
			tracJump = j
		}
		if j := math.Abs(out.RT - in.RT); j > tracJump {
			tracJump = j
		}
		// Γ2 similarly (both sides are transmitted − incident, and the
		// incident field is smooth across Γ2).
		out2 := mo.PairPolar(s.R*(1+eps), th, d)
		in2 := mo.PairPolar(s.R*(1-eps), th, d)
		if j := math.Abs(out2.RR - in2.RR); j > tracJump {
			tracJump = j
		}
		if j := math.Abs(out2.RT - in2.RT); j > tracJump {
			tracJump = j
		}
		// Displacement continuity.
		for _, pair := range [][2]float64{{s.RPrime, 1}, {s.R, s.K()}} {
			radius := pair[0]
			urOut, utOut := mo.dispAt(radius*(1+eps), th, d)
			urIn, utIn := mo.dispAt(radius*(1-eps), th, d)
			if j := math.Abs(urOut - urIn); j > dispJump {
				dispJump = j
			}
			if j := math.Abs(utOut - utIn); j > dispJump {
				dispJump = j
			}
		}
	}
	return tracJump, dispJump
}

// dispAt evaluates the perturbation displacement field (total minus the
// smooth incident part in the substrate convention used by
// BoundaryResiduals) at local polar (r, θ) for pitch d, in µm.
func (mo *Model) dispAt(r, theta, d float64) (ur, ut float64) {
	s := mo.Struct
	rho := r / s.RPrime
	k := s.K()
	c, l, sub := s.Body, s.Liner, s.Substrate
	for m := 2; m <= mo.MMax; m++ {
		scale := potential.IncidentCoeff(m-2, mo.Lame.K, s.RPrime, d)
		u := mo.units[m-2]
		var urm, utm float64
		switch {
		case rho >= 1:
			// Scattered + incident so that both sides of Γ1 carry the
			// incident term and the comparison is total vs total.
			a, b := u.sub.Scale(scale).DispProfiles(m, rho, 2*sub.Mu(), sub.Kappa(mo.Plane))
			ai, bi := potential.HarmCoeffs{BPos: scale}.DispProfiles(m, rho, 2*sub.Mu(), sub.Kappa(mo.Plane))
			urm, utm = a+ai, b+bi
		case rho >= k:
			urm, utm = u.liner.Scale(scale).DispProfiles(m, rho, 2*l.Mu(), l.Kappa(mo.Plane))
		default:
			urm, utm = u.core.Scale(scale).DispProfiles(m, rho, 2*c.Mu(), c.Kappa(mo.Plane))
		}
		cm, sm := math.Cos(float64(m)*theta), math.Sin(float64(m)*theta)
		ur += urm * cm * s.RPrime // back to µm
		ut += utm * sm * s.RPrime
	}
	return ur, ut
}
