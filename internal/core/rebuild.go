package core

//tsvlint:apiboundary

import (
	"fmt"

	"tsvstress/internal/geom"
	"tsvstress/internal/interact"
	"tsvstress/internal/spatial"
)

// Rebuild returns a new Analyzer over pl that shares this analyzer's
// solved models: the Stage I engine (superpose.LS) and the interactive
// model (interact.Model) with its per-harmonic transfer functions and
// pitch-keyed coefficient cache. Only the spatial index and the
// per-victim pair rounds are rebuilt, so an analyzer refresh after a
// placement edit costs O(n·k) cache look-ups instead of the boundary
// solves New performs — the edit-aware constructor path the incremental
// engine flushes through.
//
// prev optionally maps a new TSV index j to the index this analyzer
// held the same TSV at, provided the TSV's center AND every aggressor
// within PairPitchCutoff of it are unchanged by the edits between the
// two placements; return -1 when that does not hold (moved, added, or
// any neighbor changed). Eligible victims share the previous packed
// rounds by pointer and skip re-aggregation entirely. Pass nil to
// rebuild every victim's rounds (still through the shared coefficient
// cache).
//
// The returned analyzer is independent of the receiver except for the
// shared immutable models and any shared round packs; both analyzers
// remain safe for concurrent use.
func (a *Analyzer) Rebuild(pl *geom.Placement, prev func(j int) int) (*Analyzer, error) {
	if err := pl.Validate(2 * a.Struct.RPrime); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	nb := &Analyzer{
		Struct:    a.Struct,
		Placement: pl,
		LS:        a.LS,
		Model:     a.Model,
		opt:       a.opt,
		idx:       spatial.NewIndex(pl.Centers(), maxF(a.opt.LSCutoff, a.opt.PairDistCutoff)),
	}
	nb.pairEvals = make([][]interact.PairEval, pl.Len())
	nb.victimRounds = make([]*interact.VictimRounds, pl.Len())
	for j, vic := range pl.TSVs {
		if prev != nil {
			if pj := prev(j); pj >= 0 && pj < len(a.pairEvals) {
				nb.pairEvals[j] = a.pairEvals[pj]
				nb.victimRounds[j] = a.victimRounds[pj]
				nb.numPairs += len(nb.pairEvals[j])
				continue
			}
		}
		nb.idx.Near(vic.Center, a.opt.PairPitchCutoff, func(i int, d float64) {
			if i == j || d <= 0 {
				return
			}
			nb.pairEvals[j] = append(nb.pairEvals[j], a.Model.NewPairEval(vic.Center, pl.TSVs[i].Center))
			nb.numPairs++
		})
		nb.victimRounds[j] = interact.PackRounds(nb.pairEvals[j])
	}
	return nb, nil
}
