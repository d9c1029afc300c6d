package main

import (
	"math/rand"
	"time"

	"tsvstress/internal/placegen"
	"tsvstress/internal/serve"
)

// ecoSlots returns eco-edit's two 1000-TSV sessions at the Table 6
// density on the default 1 µm grid.
func ecoSlots(seed int64, tiny bool) ([]*slot, error) {
	n := 1000
	if tiny {
		n = 60
	}
	out := make([]*slot, 2)
	for k := range out {
		pl, err := placegen.Random(n, 1e-2, minPitch+1, seed*7919+int64(k))
		if err != nil {
			return nil, err
		}
		out[k] = &slot{live: true, mirror: pl.Clone(),
			req: serve.CreateRequest{TSVs: wireOf(pl), Mode: "full", Spacing: 1, Margin: 5}}
	}
	return out, nil
}

// ecoPlan alternates the two sessions, each on its own connection. Of
// every ten ops a session gets, nine are move batches and one, at a
// seeded position, reads the whole field; the batches hold 1, 2 and 3
// moves in equal numbers. The mix is exact in every run, so runs
// differ only in content.
func ecoPlan(seed int64, phase int, due []time.Duration, slots []*slot) []plannedOp {
	rng := phaseRNG(seed, phase)
	kinds := make([][]string, len(slots))
	sizes := make([][]int, len(slots))
	ops := make([]plannedOp, len(due))
	for i, d := range due {
		s := i % len(slots)
		if len(kinds[s]) == 0 {
			kinds[s] = deal(rng, map[string]int{"edits": 9, "map_values": 1})
		}
		op := plannedOp{due: d, conn: s, slot: s, kind: kinds[s][0]}
		kinds[s] = kinds[s][1:]
		if op.kind == "edits" {
			if len(sizes[s]) == 0 {
				sizes[s] = deal(rng, map[int]int{1: 1, 2: 1, 3: 1})
			}
			op.body = mustJSON(serve.EditsRequest{Edits: moveBatch(rng, slots[s].mirror, sizes[s][0])})
			sizes[s] = sizes[s][1:]
		}
		ops[i] = op
	}
	return ops
}

// ecoLadder replays the first session with its own move batches.
func ecoLadder(rng *rand.Rand, slots []*slot) ladderInput {
	s := slots[0]
	return ladderInput{req: requestFor(s.mirror, s.req), edits: drawBatches(rng, s.mirror, moveBatch)}
}
