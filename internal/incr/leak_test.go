package incr

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"tsvstress/internal/core"
	"tsvstress/internal/geom"
)

// TestSessionHeapFlatOverMoves pins that a long-lived session's heap
// does not grow with the number of edits: every flush rebuilds the
// analyzer over the shared solved models, and nothing it builds may
// accumulate in them (a per-pitch coefficient cache on the shared model
// once grew by ~14 entries per move, ~4–5 MB over this window).
func TestSessionHeapFlatOverMoves(t *testing.T) {
	e, st := testSession(t, 200, 5, 5, core.ModeFull)
	rng := rand.New(rand.NewSource(17))
	heapAt := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var base uint64
	for move := 1; move <= 2000; move++ {
		for {
			i := rng.Intn(e.NumTSVs())
			c := e.pl.TSVs[i].Center.Add(geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4))
			if e.Apply(geom.Edit{Op: geom.EditMove, Index: i, TSV: geom.TSV{Center: c}}) == nil {
				break
			}
		}
		if _, err := e.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		switch move {
		case 500:
			base = heapAt()
		case 2000:
			h := heapAt()
			t.Logf("live heap: %d B at move 500, %d B at move 2000", base, h)
			if h > base+1<<20 {
				t.Errorf("heap grew from %d B at move 500 to %d B at move 2000 (+%d B)", base, h, h-base)
			}
		}
	}
	checkParity(t, e, st, 1e-9)
}
