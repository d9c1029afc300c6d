package core

import (
	"context"
	"math/rand"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

func TestPartitionTilesShapes(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 1}, {0, 4}, {1, 1}, {1, 3}, {7, 2}, {10, 10}, {10, 13}, {1000, 7}, {5, 0}, {5, -2},
	} {
		shards := PartitionTiles(tc.n, tc.k)
		wantShards := tc.k
		if wantShards < 1 {
			wantShards = 1
		}
		if len(shards) != wantShards {
			t.Fatalf("PartitionTiles(%d,%d): %d shards, want %d", tc.n, tc.k, len(shards), wantShards)
		}
		seen := make(map[int32]bool, tc.n)
		minSize, maxSize := tc.n, 0
		for _, sh := range shards {
			if sh == nil {
				t.Fatalf("PartitionTiles(%d,%d): nil shard", tc.n, tc.k)
			}
			if len(sh) < minSize {
				minSize = len(sh)
			}
			if len(sh) > maxSize {
				maxSize = len(sh)
			}
			for _, id := range sh {
				if id < 0 || int(id) >= tc.n {
					t.Fatalf("PartitionTiles(%d,%d): id %d out of range", tc.n, tc.k, id)
				}
				if seen[id] {
					t.Fatalf("PartitionTiles(%d,%d): id %d in two shards", tc.n, tc.k, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != tc.n {
			t.Fatalf("PartitionTiles(%d,%d): covers %d ids", tc.n, tc.k, len(seen))
		}
		if tc.n >= wantShards && maxSize-minSize > 1 {
			t.Fatalf("PartitionTiles(%d,%d): shard sizes range [%d,%d], want balanced ±1", tc.n, tc.k, minSize, maxSize)
		}
		// Determinism: a second call yields the identical partition.
		again := PartitionTiles(tc.n, tc.k)
		for s := range shards {
			if len(again[s]) != len(shards[s]) {
				t.Fatalf("PartitionTiles(%d,%d): shard %d size changed between calls", tc.n, tc.k, s)
			}
			for i := range shards[s] {
				if again[s][i] != shards[s][i] {
					t.Fatalf("PartitionTiles(%d,%d): nondeterministic shard %d", tc.n, tc.k, s)
				}
			}
		}
	}
}

// TestShardedEvalMatchesMapInto is the cluster-tier correctness
// property: partition the tiles across k shards, evaluate each shard
// independently (its own destination buffer, as a remote worker would),
// serialize each tile through the wire records, and merge the records
// in a random completion order. The merged grid must reproduce the
// unsharded MapInto bit-for-bit — the per-tile kernel is deterministic
// and shards neither share state nor order.
func TestShardedEvalMatchesMapInto(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(90, 1e-2, 2*st.RPrime+1, 23)
	if err != nil {
		t.Fatal(err)
	}
	an, err := New(st, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := gridPoints(t, pl, 1.25)
	tl, err := NewTiling(pts, an.Options().GatherCutoff(ModeFull))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]tensor.Stress, len(pts))
	if err := an.MapInto(context.Background(), want, pts, ModeFull); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	for _, k := range []int{1, 2, 4, 7} {
		shards := tl.Partition(k)
		// Each shard evaluates into its own buffer and emits wire records,
		// exactly what a worker process does.
		var records [][]byte
		for _, ids := range shards {
			if len(ids) == 0 {
				continue
			}
			buf := make([]tensor.Stress, len(pts))
			if err := an.EvalTiles(context.Background(), buf, pts, tl, ids, nil, ModeFull); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			for _, id := range ids {
				records = append(records, tl.AppendTileResult(nil, id, buf))
			}
		}
		// Merge in a random completion order.
		rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
		got := make([]tensor.Stress, len(pts))
		for _, rec := range records {
			id, vals, rest, err := ReadTileResult(rec)
			if err != nil {
				t.Fatalf("k=%d: decode: %v", k, err)
			}
			if len(rest) != 0 {
				t.Fatalf("k=%d: %d trailing bytes after tile %d", k, len(rest), id)
			}
			if err := tl.ScatterTileResult(id, vals, got); err != nil {
				t.Fatalf("k=%d: scatter: %v", k, err)
			}
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: point %d: sharded %+v != unsharded %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestTileResultRoundTripAndErrors(t *testing.T) {
	pl := placegenMust(t)
	pts := gridPoints(t, pl, 2)
	tl, err := NewTiling(pts, 25)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]tensor.Stress, len(pts))
	for i := range dst {
		dst[i] = tensor.Stress{XX: float64(i), YY: -float64(i), XY: 0.5 * float64(i)}
	}
	var buf []byte
	for id := 0; id < tl.NumTiles(); id++ {
		start := len(buf)
		buf = tl.AppendTileResult(buf, int32(id), dst)
		if got, want := len(buf)-start, tl.TileResultLen(int32(id)); got != want {
			t.Fatalf("tile %d: encoded %d bytes, TileResultLen says %d", id, got, want)
		}
	}
	got := make([]tensor.Stress, len(pts))
	rest := buf
	for len(rest) > 0 {
		var id int32
		var vals []tensor.Stress
		id, vals, rest, err = ReadTileResult(rest)
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.ScatterTileResult(id, vals, got); err != nil {
			t.Fatal(err)
		}
	}
	for i := range got {
		if got[i] != dst[i] {
			t.Fatalf("round trip diverged at %d", i)
		}
	}

	// Malformed input must error, never panic.
	if _, _, _, err := ReadTileResult(buf[:5]); err == nil {
		t.Error("truncated header accepted")
	}
	bad := tl.AppendTileResult(nil, 0, dst)
	bad = bad[:len(bad)-1] // truncate the payload
	if _, _, _, err := ReadTileResult(bad); err == nil {
		t.Error("truncated payload accepted")
	}
	// A record whose count disagrees with the tile geometry must be
	// rejected at scatter.
	id0, vals, _, err := ReadTileResult(tl.AppendTileResult(nil, 0, dst))
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.ScatterTileResult(id0, vals[:len(vals)-1], got); err == nil && len(vals) > 0 {
		t.Error("short value slice accepted by scatter")
	}
	if err := tl.ScatterTileResult(int32(tl.NumTiles()), vals, got); err == nil {
		t.Error("out-of-range tile id accepted by scatter")
	}
	if err := tl.ScatterTileResult(id0, vals, got[:1]); err == nil {
		t.Error("short dst accepted by scatter")
	}
}

func placegenMust(t *testing.T) *geom.Placement {
	t.Helper()
	pl, err := placegen.Random(40, 1e-2, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}
