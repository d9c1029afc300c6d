// Package field provides simulation-point grids and stress-field
// storage: the regular sampling lattices the paper's "simulation
// points" live on, line scans for figure-style comparisons, and CSV
// export.
package field

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"tsvstress/internal/floats"
	"tsvstress/internal/geom"
	"tsvstress/internal/spatial"
	"tsvstress/internal/tensor"
)

// Grid is a regular lattice of simulation points over a rectangle.
type Grid struct {
	Region geom.Rect
	NX, NY int
	pts    []geom.Point
}

// NewGrid builds a lattice with the given point spacing. Points are
// placed at cell centers so none sits exactly on the region boundary.
func NewGrid(region geom.Rect, spacing float64) (*Grid, error) {
	if !region.Valid() || region.Area() <= 0 {
		return nil, fmt.Errorf("field: invalid region %+v", region)
	}
	if !floats.IsFinite(spacing) || spacing <= 0 {
		return nil, fmt.Errorf("field: spacing %g must be positive and finite", spacing)
	}
	nx := int(region.W() / spacing)
	ny := int(region.H() / spacing)
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	g := &Grid{Region: region, NX: nx, NY: ny}
	dx := region.W() / float64(nx)
	dy := region.H() / float64(ny)
	g.pts = make([]geom.Point, 0, nx*ny)
	for j := 0; j < ny; j++ {
		y := region.Min.Y + (float64(j)+0.5)*dy
		for i := 0; i < nx; i++ {
			g.pts = append(g.pts, geom.Pt(region.Min.X+(float64(i)+0.5)*dx, y))
		}
	}
	return g, nil
}

// Points returns the lattice points in row-major order. The slice is
// shared; callers must not mutate it.
func (g *Grid) Points() []geom.Point { return g.pts }

// Len returns the number of points.
func (g *Grid) Len() int { return len(g.pts) }

// At returns point (i, j).
func (g *Grid) At(i, j int) geom.Point { return g.pts[j*g.NX+i] }

// Line returns n evenly spaced points from a to b inclusive.
func Line(a, b geom.Point, n int) []geom.Point {
	if n < 2 {
		return []geom.Point{a}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		t := float64(i) / float64(n-1)
		pts[i] = geom.Pt(a.X+(b.X-a.X)*t, a.Y+(b.Y-a.Y)*t)
	}
	return pts
}

// Mask selects a subset of grid points; Masked applies it.
type Mask func(p geom.Point) bool

// Masked returns the points for which every mask returns true.
func Masked(pts []geom.Point, masks ...Mask) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		keep := true
		for _, m := range masks {
			if !m(p) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	return out
}

// OutsideTSVs returns a mask that rejects points inside any TSV
// footprint (distance < rPrime from a center) — simulation points are
// device-layer silicon locations (DESIGN.md §2).
func OutsideTSVs(pl *geom.Placement, rPrime float64) Mask {
	nearest := nearestDist(pl, rPrime)
	return func(p geom.Point) bool {
		return nearest(p) >= rPrime
	}
}

// WithinAnyTSV returns a mask that keeps only points within radius of
// some TSV center — the paper's "critical region".
func WithinAnyTSV(pl *geom.Placement, radius float64) Mask {
	nearest := nearestDist(pl, radius)
	return func(p geom.Point) bool {
		return nearest(p) <= radius
	}
}

// nearestDist returns a function giving the distance from q to the
// nearest TSV center, exactly as Placement.NearestTSV measures it,
// whenever that distance is at most radius; otherwise it returns some
// value above radius. A spatial index gathers the candidate centers by
// squared distance, so its reach carries a relative slack that keeps
// every center within radius by Dist among them: masks comparing the
// result against radius decide exactly as a scan of every TSV does.
func nearestDist(pl *geom.Placement, radius float64) func(geom.Point) float64 {
	reach := radius * (1 + 1e-9)
	if pl.Len() == 0 || !(reach > 0) || math.IsInf(reach, 1) {
		return func(q geom.Point) float64 {
			_, d := pl.NearestTSV(q)
			return d
		}
	}
	// About one TSV per cell and never less than the reach, so a sparse
	// or elongated placement cannot blow up the bucket grid.
	b := pl.Bounds(0)
	cell := math.Max(reach, (b.W()+b.H())/math.Sqrt(float64(pl.Len())))
	ix := spatial.NewIndex(pl.Centers(), cell)
	return func(q geom.Point) float64 {
		d := math.Inf(1)
		ix.Near(q, reach, func(i int, _ float64) {
			if di := ix.At(i).Dist(q); di < d {
				d = di
			}
		})
		return d
	}
}

// WriteCSV writes "x,y,<columns...>" rows for one or more stress fields
// sampled at pts; columns lists the tensor components to emit (see
// tensor.Stress.Component) prefixed per field name.
func WriteCSV(w io.Writer, pts []geom.Point, fields map[string][]tensor.Stress, columns []string) error {
	// Deterministic field order: sort names.
	names := make([]string, 0, len(fields))
	for name, vals := range fields {
		if len(vals) != len(pts) {
			return fmt.Errorf("field: %q has %d values for %d points", name, len(vals), len(pts))
		}
		names = append(names, name)
	}
	sort.Strings(names)
	// Buffer the writer and assemble each row with strconv appends: the
	// per-value Fprintf calls this replaces dominated export time for
	// large grids.
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("x,y"); err != nil {
		return err
	}
	for _, name := range names {
		for _, c := range columns {
			if _, err := fmt.Fprintf(bw, ",%s_%s", name, c); err != nil {
				return err
			}
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	row := make([]byte, 0, 16*(2+len(names)*len(columns)))
	for i, p := range pts {
		row = row[:0]
		row = strconv.AppendFloat(row, p.X, 'g', 6, 64)
		row = append(row, ',')
		row = strconv.AppendFloat(row, p.Y, 'g', 6, 64)
		for _, name := range names {
			s := fields[name][i]
			for _, c := range columns {
				v, err := s.Component(c)
				if err != nil {
					return err
				}
				row = append(row, ',')
				row = strconv.AppendFloat(row, v, 'g', 6, 64)
			}
		}
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}
