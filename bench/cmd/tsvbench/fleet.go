package main

import (
	"math/rand"
	"sort"
	"time"

	"tsvstress/internal/serve"
)

const (
	// fleetSessions is how many small sessions fleet-mix creates at
	// set-up: several times the replicas' 64 live sessions, so cold
	// sessions are evicted and rehydrated.
	fleetSessions = 400
	// fleetVerified is how many sessions are checked after each phase.
	fleetVerified = 8
	// fleetZipfS is the skew of session popularity.
	fleetZipfS = 1.1
	// fleetConns is the generator's connection count. Sessions share
	// connections, so a slow op (a delete unlinks fsynced WAL files)
	// holds back the later ops of every session on its connection;
	// with 2 connections that generator-made queue set the latency.
	fleetConns = 16
)

// fleetMix is fleet-mix's op mix per 20 ops.
var fleetMix = map[string]int{"edits": 8, "map": 7, "screen": 2, "create": 1, "delete": 1, "aging": 1}

// fleetAging is a bounded aging run: coarse steps, a short horizon.
var fleetAging = mustJSON(serve.AgingRequest{DTSeconds: 1e7, MaxTimeSeconds: 1e9, Top: 5, Workers: 1})

// latticeRequest draws a small session: a 2×2 to 3×3 lattice at 24 µm
// pitch with ±4 µm jitter, on a 3 µm grid.
func latticeRequest(rng *rand.Rand) serve.CreateRequest {
	req := serve.CreateRequest{Mode: "full", Spacing: 3, Margin: 5}
	n := 2 + rng.Intn(2)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			req.TSVs = append(req.TSVs, serve.TSVWire{
				X: float64(24*i) + rng.Float64()*8 - 4,
				Y: float64(24*j) + rng.Float64()*8 - 4,
			})
		}
	}
	return req
}

// fleetSlots returns fleet-mix's set-up sessions; slot i's content is a
// pure function of the seed and i.
func fleetSlots(seed int64, tiny bool) ([]*slot, error) {
	n := fleetSessions
	if tiny {
		n = 24
	}
	out := make([]*slot, n)
	for i := range out {
		req := latticeRequest(rand.New(rand.NewSource(seed*1_000_003 + int64(i))))
		out[i] = &slot{live: true, req: req, mirror: placementOf(req.TSVs)}
	}
	return out, nil
}

// zipfPicker draws session slots by Zipf popularity. The rank→slot
// permutation depends on the seed alone, so the hot sessions stay hot
// across phases. It maps rank r to a slot on connection r mod fleetConns,
// so every seed loads the connections alike.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(seed int64, rng *rand.Rand, n int) *zipfPicker {
	byConn := make([][]int, fleetConns)
	for s := 0; s < n; s++ {
		byConn[s%fleetConns] = append(byConn[s%fleetConns], s)
	}
	shuffle := rand.New(rand.NewSource(seed))
	for _, slots := range byConn {
		shuffle.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	}
	perm := make([]int, n)
	for r := range perm {
		c := r % fleetConns
		perm[r], byConn[c] = byConn[c][0], byConn[c][1:]
	}
	return &zipfPicker{z: rand.NewZipf(rng, fleetZipfS, 1, uint64(n-1)), perm: perm}
}

func (p *zipfPicker) pick() int { return p.perm[p.z.Uint64()] }

// fleetPlan draws each op's target by Zipf popularity and its kind from
// decks of fleetMix. A create fills the lowest empty slot (or reads a map when
// none is empty); any op drawn for an empty slot creates it instead.
// A slot's ops always ride the same connection, so a session never has
// two ops in flight.
func fleetPlan(seed int64, phase int, due []time.Duration, slots []*slot) []plannedOp {
	rng := phaseRNG(seed, phase)
	zp := newZipfPicker(seed, rng, len(slots))
	ops := make([]plannedOp, len(due))
	var kinds []string
	for i, d := range due {
		if len(kinds) == 0 {
			kinds = deal(rng, fleetMix)
		}
		kind := kinds[0]
		kinds = kinds[1:]
		idx := zp.pick()
		if kind == "create" {
			if e := firstEmpty(slots); e >= 0 {
				idx = e
			} else {
				kind = "map"
			}
		}
		s := slots[idx]
		if !s.live {
			kind = "create"
		}
		op := plannedOp{due: d, conn: idx % fleetConns, slot: idx, kind: kind}
		switch kind {
		case "create":
			s.req = latticeRequest(rng)
			s.mirror = placementOf(s.req.TSVs)
			s.live = true
			op.body = mustJSON(s.req)
		case "edits":
			op.body = mustJSON(serve.EditsRequest{Edits: mixedBatch(rng, s.mirror, 1+rng.Intn(3))})
		case "aging":
			op.body = fleetAging
		case "delete":
			s.live = false
		}
		ops[i] = op
	}
	return ops
}

func firstEmpty(slots []*slot) int {
	for i, s := range slots {
		if !s.live {
			return i
		}
	}
	return -1
}

// fleetVerify samples up to fleetVerified live sessions whose ops all
// succeeded.
func fleetVerify(rng *rand.Rand, slots []*slot) []int {
	var live []int
	for i, s := range slots {
		if s.live && s.id != "" && !s.tainted {
			live = append(live, i)
		}
	}
	rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
	picks := live[:min(fleetVerified, len(live))]
	sort.Ints(picks)
	return picks
}

// fleetLadder replays the first live session with its own edit mix.
func fleetLadder(rng *rand.Rand, slots []*slot) ladderInput {
	s := slots[firstLive(slots)]
	return ladderInput{req: requestFor(s.mirror, s.req), edits: drawBatches(rng, s.mirror, mixedBatch)}
}

func firstLive(slots []*slot) int {
	for i, s := range slots {
		if s.live {
			return i
		}
	}
	return 0
}
