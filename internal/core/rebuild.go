package core

//tsvlint:apiboundary

import (
	"fmt"
	"sync"

	"tsvstress/internal/geom"
	"tsvstress/internal/interact"
	"tsvstress/internal/spatial"
)

// Rebuild returns a new Analyzer over pl that shares this analyzer's
// solved models: the Stage I engine (superpose.LS) and the interactive
// model (interact.Model) with its per-harmonic transfer functions. Only
// the spatial index and the per-victim packed rounds are rebuilt, so an
// analyzer refresh after a placement edit costs what packing costs
// (O(n·k) closed-form recurrences, in parallel) instead of the boundary
// solves New performs — the edit-aware constructor path the incremental
// engine flushes through.
//
// prev optionally maps a new TSV index j to the index this analyzer
// held the same TSV at, provided the TSV's center AND every aggressor
// within PairPitchCutoff of it are unchanged by the edits between the
// two placements; return -1 when that does not hold (moved, added, or
// any neighbor changed). Eligible victims share the previous packed
// rounds by pointer and skip packing entirely. prev is called once per
// new index, from the calling goroutine. Pass nil to repack every
// victim.
//
// The returned analyzer is independent of the receiver except for the
// shared immutable models and any shared round packs (each victim owns
// its own, so sharing one keeps no other victim's storage alive); both
// analyzers remain safe for concurrent use.
func (a *Analyzer) Rebuild(pl *geom.Placement, prev func(j int) int) (*Analyzer, error) {
	if err := pl.Validate(2 * a.Struct.RPrime); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return a.rebuild(pl, prev), nil
}

// rebuild is Rebuild over a validated placement; New calls it on an
// analyzer that holds only the solved models and options.
func (a *Analyzer) rebuild(pl *geom.Placement, prev func(j int) int) *Analyzer {
	nb := &Analyzer{
		Struct:    a.Struct,
		Placement: pl,
		LS:        a.LS,
		Model:     a.Model,
		opt:       a.opt,
		idx:       spatial.NewIndex(pl.Centers(), maxF(a.opt.LSCutoff, a.opt.PairDistCutoff)),
	}
	nb.packVictims(a, prev)
	return nb
}

// minParallelPack is the victim count below which packVictims packs on
// the calling goroutine: one victim packs in about 3 µs, so a small
// placement (or an edit's handful of dirty victims) finishes before
// worker goroutines would start.
const minParallelPack = 256

// packVictims fills a.victimRounds and a.numPairs for a.Placement. With
// prev non-nil, victim j shares from.victimRounds[prev(j)] by pointer
// when prev(j) ≥ 0 (see Rebuild); every other victim is packed afresh,
// in a.opt.Workers contiguous chunks, the last on the calling
// goroutine. A victim's rounds do not depend on the chunking, so the
// analyzer is bit-identical for every worker count.
func (a *Analyzer) packVictims(from *Analyzer, prev func(j int) int) {
	a.victimRounds = make([]*interact.VictimRounds, a.Placement.Len())
	todo := make([]int32, 0, len(a.victimRounds))
	for j := range a.victimRounds {
		if prev != nil {
			if pj := prev(j); pj >= 0 && pj < len(from.victimRounds) {
				a.victimRounds[j] = from.victimRounds[pj]
				continue
			}
		}
		todo = append(todo, int32(j))
	}
	workers := a.opt.Workers
	if len(todo) < minParallelPack {
		workers = 1
	}
	chunk := (len(todo) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(todo); lo += chunk {
		part := todo[lo:min(lo+chunk, len(todo))]
		if lo+chunk >= len(todo) {
			a.packRange(part)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.packRange(part)
		}()
	}
	wg.Wait()
	for _, vr := range a.victimRounds {
		if vr != nil {
			a.numPairs += vr.NumRounds()
		}
	}
}

// packRange packs the given victims into a.victimRounds, reusing one
// neighbor scratch across them: each victim costs one PackRounds (one
// struct and one slab).
func (a *Analyzer) packRange(victims []int32) {
	var ids []int32
	var aggs []geom.Point
	for _, j := range victims {
		vic := a.idx.At(int(j))
		ids = a.idx.AppendNear(ids[:0], vic, a.opt.PairPitchCutoff)
		aggs = aggs[:0]
		for _, i := range ids {
			if i != j {
				aggs = append(aggs, a.idx.At(int(i)))
			}
		}
		a.victimRounds[j] = a.Model.PackRounds(vic, aggs)
	}
}
