//tsvlint:hotpath

package incr

import (
	"tsvstress/internal/core"
	"tsvstress/internal/geom"
)

// dirtySlack absorbs floating-point rounding in the point-vs-disc
// distance test, keeping the dirty point set a strict superset of the
// affected points (mirrors the gather slack inside core's tile engine).
const dirtySlack = 1e-6

// markEdit marks every point an edit with the given sites (old and/or
// new TSV centers) can affect, and invalidates the round-reuse mapping
// of every victim whose aggressor set the edit changed.
//
// Locality argument (the dirty-set invariant, DESIGN.md §12): a point
// p changes value only if (a) a site is within LSCutoff of p — Stage I
// gains or loses that single-TSV contribution — or (b) some victim v
// with a changed round set is within PairDistCutoff of p. Changed
// victims are exactly the edited TSV itself (a site) and the TSVs
// within PairPitchCutoff of a site. Marking disc(site, siteRadius) and
// disc(v, PairDistCutoff) for those victims therefore covers every
// affected point.
func (e *Engine) markEdit(sites []geom.Point) {
	opt := e.an.Options()
	pair := e.mode == core.ModeFull || e.mode == core.ModeInteractive
	siteR := opt.LSCutoff
	if pair && opt.PairDistCutoff > siteR {
		siteR = opt.PairDistCutoff
	}
	for _, c := range sites {
		e.markDisc(c, siteR)
	}
	// Victims whose round set changed: TSVs within PairPitchCutoff of a
	// site. Their packed rounds must be re-aggregated at the next flush
	// regardless of mode (the rebuilt analyzer also backs reliability
	// screening); their influence discs dirty points only when Stage II
	// contributes to the session's field.
	pitch2 := opt.PairPitchCutoff * opt.PairPitchCutoff
	for u := range e.pl.TSVs {
		c := e.pl.TSVs[u].Center
		for _, s := range sites {
			dx := c.X - s.X
			dy := c.Y - s.Y
			if dx*dx+dy*dy <= pitch2 {
				e.prevIdx[u] = -1
				if pair {
					e.markDisc(c, opt.PairDistCutoff)
				}
				break
			}
		}
	}
}

// markDisc marks dirty every point within radius of c, and the tiles
// holding them. Only the tiles near the disc are visited; their query
// box is widened by one more slack so a point the distance test accepts
// is never lost to rounding in the box.
func (e *Engine) markDisc(c geom.Point, radius float64) {
	r := radius + dirtySlack
	r2 := r * r
	e.near = e.tiling.AppendTilesNear(e.near[:0], c, r+dirtySlack)
	for _, id := range e.near {
		hit := false
		for _, pi := range e.tiling.TilePoints(int(id)) {
			if e.mask[pi] {
				continue
			}
			p := e.pts[pi]
			dx := p.X - c.X
			dy := p.Y - c.Y
			if dx*dx+dy*dy <= r2 {
				e.mask[pi] = true
				e.dirtyPts++
				hit = true
			}
		}
		if hit && !e.dirty[id] {
			e.dirty[id] = true
			e.ids = append(e.ids, id)
		}
	}
}

// clearDirty empties the dirty set, visiting only the dirty tiles.
func (e *Engine) clearDirty() {
	for _, id := range e.ids {
		e.dirty[id] = false
		for _, pi := range e.tiling.TilePoints(int(id)) {
			e.mask[pi] = false
		}
	}
	e.ids = e.ids[:0]
	e.dirtyPts = 0
}
