// Package tsvstress is an accurate semi-analytical framework for
// full-chip TSV-induced stress modeling, reproducing Li & Pan,
// "An Accurate Semi-Analytical Framework for Full-Chip TSV-induced
// Stress Modeling" (DAC 2013).
//
// Through-silicon vias (TSVs) induce thermo-mechanical stress in 3D ICs
// because the thermal expansion of the copper via, its dielectric liner
// and the silicon substrate differ. This package computes that stress
// on the device layer for full-chip placements:
//
//   - the classic linear-superposition baseline (each TSV contributes
//     its isolated analytical field), and
//   - the paper's proposed two-stage framework, which additionally
//     models the *interactive stress* between nearby TSV pairs with a
//     Muskhelishvili complex-potential series, recovering most of the
//     error linear superposition makes at tight pitch.
//
// An in-house plane-stress finite-element solver (the stand-in for the
// paper's COMSOL golden reference) is exposed for validation, together
// with the error metrics of the paper's evaluation.
//
// Quick start:
//
//	st := tsvstress.Baseline(tsvstress.BCB)
//	pl := tsvstress.NewPlacement(tsvstress.Pt(0, 0), tsvstress.Pt(10, 0))
//	an, err := tsvstress.NewAnalyzer(st, pl, tsvstress.AnalyzerOptions{})
//	if err != nil { ... }
//	s := an.StressAt(tsvstress.Pt(5, 2)) // full framework (LS + interactive)
//	fmt.Println(s.XX, s.VonMises())
//
// Full-chip sweeps go through an.Map (or the streaming an.MapInto,
// which reuses a caller-owned buffer): a tile-batched parallel engine
// that gathers nearby-TSV and pair-round candidates once per spatial
// tile and aggregates each victim's rounds per harmonic — orders of
// magnitude faster than per-point evaluation at paper densities, and
// pinned to the pointwise evaluators within 1e-9 MPa.
//
// Lengths are in µm, moduli and stresses in MPa, temperatures in K.
package tsvstress

//tsvlint:apiboundary

import (
	"context"

	"tsvstress/internal/core"
	"tsvstress/internal/fem"
	"tsvstress/internal/geom"
	"tsvstress/internal/interact"
	"tsvstress/internal/lame"
	"tsvstress/internal/material"
	"tsvstress/internal/metrics"
	"tsvstress/internal/mobility"
	"tsvstress/internal/optimize"
	"tsvstress/internal/placegen"
	"tsvstress/internal/reliability"
	"tsvstress/internal/tensor"
)

// Re-exported core types. Aliases keep the public surface in one import
// while the implementation stays in focused internal packages.
type (
	// Material is a linear-elastic isotropic material (E in MPa, ν,
	// CTE in 1/K).
	Material = material.Material
	// Structure is a TSV cross-section: body radius, liner, substrate
	// and thermal load.
	Structure = material.Structure
	// Point is a device-layer location in µm.
	Point = geom.Point
	// Placement is a set of TSVs sharing one structure.
	Placement = geom.Placement
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Stress is a plane-stress tensor in MPa.
	Stress = tensor.Stress
	// Analyzer is the full-chip stress analyzer (Algorithm 1).
	Analyzer = core.Analyzer
	// AnalyzerOptions configures the analyzer; the zero value is the
	// paper's configuration.
	AnalyzerOptions = core.Options
	// SingleTSV is the analytical single-TSV solution (Eq. 6).
	SingleTSV = lame.Solution
	// InteractModel is the interactive-stress model of a TSV pair.
	InteractModel = interact.Model
	// ErrorStats summarizes method-vs-golden error.
	ErrorStats = metrics.Stats
	// FEMOptions configures the finite-element golden solver.
	FEMOptions = fem.Options
	// FEMResult is a solved finite-element stress field.
	FEMResult = fem.Result
	// FEMField is any stress field that can be sampled pointwise.
	FEMField = fem.Field
	// SubmodelOptions configures the two-scale FEM golden.
	SubmodelOptions = fem.SubmodelOptions
	// Carrier selects NMOS or PMOS for mobility-variation analysis.
	Carrier = mobility.Carrier
	// PiezoCoefficients are piezoresistance coefficients in 1/MPa.
	PiezoCoefficients = mobility.Coefficients
	// Plane selects plane stress (device layer, the default) or plane
	// strain (deep cross-sections).
	Plane = material.Plane
	// OptimizeOptions configures stress-aware placement optimization.
	OptimizeOptions = optimize.Options
	// OptimizeResult reports an optimization outcome.
	OptimizeResult = optimize.Result
	// TSVReport is a per-via interfacial reliability screening result.
	TSVReport = reliability.TSVReport
	// ReliabilityOptions configures the interface screening.
	ReliabilityOptions = reliability.Options
)

// Standard materials (Section 5 of the paper).
var (
	Copper  = material.Copper
	BCB     = material.BCB
	SiO2    = material.SiO2
	Silicon = material.Silicon
)

// Evaluation modes for Analyzer.Map.
const (
	ModeLS          = core.ModeLS
	ModeFull        = core.ModeFull
	ModeInteractive = core.ModeInteractive
)

// Carrier types for mobility-variation analysis.
const (
	NMOS = mobility.NMOS
	PMOS = mobility.PMOS
)

// Plane modes.
const (
	PlaneStress = material.PlaneStress
	PlaneStrain = material.PlaneStrain
)

// Pt returns the point (x, y) in µm.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// RectAround returns the w×h rectangle centered at c.
func RectAround(c Point, w, h float64) Rect { return geom.RectAround(c, w, h) }

// Baseline returns the paper's baseline TSV structure (2.5 µm copper
// body, 0.5 µm liner, silicon substrate, ΔT = −250 K).
func Baseline(liner Material) Structure { return material.Baseline(liner) }

// NewPlacement builds a placement from TSV center points.
func NewPlacement(centers ...Point) *Placement { return geom.NewPlacement(centers...) }

// PairPlacement returns two TSVs at pitch d centered on the origin.
func PairPlacement(d float64) *Placement { return placegen.Pair(d) }

// FiveCrossPlacement returns the paper's five-TSV cross placement.
func FiveCrossPlacement(minPitch float64) *Placement { return placegen.FiveCross(minPitch) }

// ArrayPlacement returns an nx×ny regular TSV array.
func ArrayPlacement(nx, ny int, pitch float64) *Placement { return placegen.Array(nx, ny, pitch) }

// RandomPlacement returns n TSVs at the given density (µm⁻²) with a
// minimum-pitch constraint, deterministic in seed.
func RandomPlacement(n int, density, minPitch float64, seed int64) (*Placement, error) {
	return placegen.Random(n, density, minPitch, seed)
}

// NewAnalyzer builds the full-chip analyzer for a placement. The zero
// options select the paper's defaults (25 µm cutoffs, 9 series terms);
// Stage I evaluates the closed-form single-TSV profile.
func NewAnalyzer(st Structure, pl *Placement, opt AnalyzerOptions) (*Analyzer, error) {
	return core.New(st, pl, opt)
}

// SolveSingleTSV returns the analytical single-TSV solution, whose
// substrate field is σrr = K/r², σθθ = −K/r² (Eq. 6 of the paper).
func SolveSingleTSV(st Structure) (*SingleTSV, error) { return lame.Solve(st) }

// NewInteractModel builds the interactive-stress model for a TSV pair
// structure; mmax ≤ 0 selects the paper's default truncation (m ≤ 10).
func NewInteractModel(st Structure, mmax int) (*InteractModel, error) {
	return interact.New(st, mmax)
}

// SolveFEM runs the plane-stress finite-element solver on a placement
// over the given domain — the raw single-mesh solve.
func SolveFEM(pl *Placement, st Structure, domain Rect, opt FEMOptions) (*FEMResult, error) {
	return fem.Solve(pl, st, domain, opt)
}

// SolveFEMGolden runs the production-accuracy golden reference: a
// Richardson-extrapolated global solve plus fine submodel patches
// around every TSV.
func SolveFEMGolden(pl *Placement, st Structure, domain Rect, opt SubmodelOptions) (FEMField, error) {
	return fem.SolveSubmodel(pl, st, domain, opt)
}

// FEMDomainFor returns a solve domain covering the placement and the
// region of interest with the given margin.
func FEMDomainFor(pl *Placement, st Structure, region Rect, margin float64) Rect {
	return fem.DomainFor(pl, st, region, margin)
}

// PiezoDefaults returns the standard <110>/(001) silicon
// piezoresistance coefficients for a carrier type.
func PiezoDefaults(c Carrier) PiezoCoefficients { return mobility.Default110(c) }

// MobilityShift returns Δµ/µ, as a dimensionless fraction, for a
// channel at angle theta (radians) with the x-axis under the given
// device-layer stress (positive = faster).
func MobilityShift(s Stress, theta float64, k PiezoCoefficients) float64 {
	return mobility.Shift(s, theta, k)
}

// WorstMobilityShift returns the most negative Δµ/µ (a dimensionless
// fraction) over all channel orientations and its angle in radians.
func WorstMobilityShift(s Stress, k PiezoCoefficients) (shift, theta float64) {
	return mobility.WorstCase(s, k)
}

// KeepOutRadius returns the single-TSV keep-out-zone radius in µm:
// beyond it the worst-orientation |Δµ/µ| stays below the dimensionless
// tol (e.g. 0.01).
func KeepOutRadius(st Structure, c Carrier, tol float64) (float64, error) {
	sol, err := lame.Solve(st)
	if err != nil {
		return 0, err
	}
	return mobility.KeepOutRadius(sol, mobility.Default110(c), tol), nil
}

// OptimizePlacement runs stress-aware simulated-annealing placement
// optimization: TSVs move (within opt.Region, respecting opt.MinPitch)
// to keep the worst-orientation mobility shift at the fixed device
// sites within opt.MobilityBudget, using the full semi-analytical
// framework for stress evaluation.
func OptimizePlacement(st Structure, initial *Placement, sites []Point, opt OptimizeOptions) (*OptimizeResult, error) {
	return optimize.Minimize(context.Background(), st, initial, sites, opt)
}

// OptimizePlacementContext is OptimizePlacement under a context: the
// annealing search stops between (and inside) objective evaluations
// when ctx is canceled, returning an error that wraps ctx's error.
func OptimizePlacementContext(ctx context.Context, st Structure, initial *Placement, sites []Point, opt OptimizeOptions) (*OptimizeResult, error) {
	return optimize.Minimize(ctx, st, initial, sites, opt)
}

// ScreenReliability probes the liner/substrate interface ring of every
// TSV with the given stress evaluator (e.g. an Analyzer's StressAt) and
// reports the debonding drivers: maximum interface tension and shear,
// plus the ring von Mises maximum.
func ScreenReliability(pl *Placement, st Structure, eval func(Point) Stress, opt ReliabilityOptions) ([]TSVReport, error) {
	return reliability.Screen(pl, st, eval, opt)
}

// RankByTension orders screening reports worst-first.
func RankByTension(reports []TSVReport) []TSVReport {
	return reliability.RankByTension(reports)
}

// SolveSingleTSVPlane is SolveSingleTSV for an explicit plane mode.
func SolveSingleTSVPlane(st Structure, plane Plane) (*SingleTSV, error) {
	return lame.SolvePlane(st, plane)
}

// CompareFields computes the paper's error statistics between a golden
// and a method field over matched sample lists, for the named component
// ("xx", "yy", "vm" or "mts"), counting points whose golden magnitude
// exceeds threshold (MPa).
func CompareFields(golden, method []Stress, component string, threshold float64) (ErrorStats, error) {
	comp, err := metrics.ByName(component)
	if err != nil {
		return ErrorStats{}, err
	}
	return metrics.Compare(golden, method, comp, threshold)
}
