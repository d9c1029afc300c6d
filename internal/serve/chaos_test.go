package serve

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/faultinject"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// chaosPlacement is a 4x4 lattice — small enough that every recovery
// cycle (engine rebuild + replay + flush) stays cheap under -race.
func chaosPlacement() CreateRequest {
	req := CreateRequest{Spacing: 3, Margin: 5}
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			req.TSVs = append(req.TSVs, TSVWire{X: float64(24 * i), Y: float64(24 * j)})
		}
	}
	return req
}

// mirrorPlacement rebuilds the chaos placement the way the server does
// (auto-assigned names included).
func mirrorPlacement() *geom.Placement {
	pl := &geom.Placement{}
	for i, tw := range chaosPlacement().TSVs {
		pl.TSVs = append(pl.TSVs, geom.TSV{Center: geom.Pt(tw.X, tw.Y), Name: "V" + strconv.Itoa(i)})
	}
	return pl
}

// randomBatch builds a batch of 1–3 edits that are valid against
// mirror applied in order (the server's rehearsal semantics), applying
// them to a throwaway clone as it goes.
func randomBatch(rng *rand.Rand, mirror *geom.Placement, minPitch float64) ([]geom.Edit, []EditWire) {
	probe := mirror.Clone()
	n := 1 + rng.Intn(3)
	var edits []geom.Edit
	var wires []EditWire
	for len(edits) < n {
		var ed geom.Edit
		var ew EditWire
		switch op := rng.Intn(3); {
		case op == 1 && probe.Len() > 8:
			idx := rng.Intn(probe.Len())
			ed = geom.Edit{Op: geom.EditRemove, Index: idx}
			ew = EditWire{Op: "remove", Index: idx}
		case op == 2:
			idx := rng.Intn(probe.Len())
			c := probe.TSVs[idx].Center.Add(geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4))
			ed = geom.Edit{Op: geom.EditMove, Index: idx, TSV: geom.TSV{Center: c}}
			ew = EditWire{Op: "move", Index: idx, X: c.X, Y: c.Y}
		default:
			c := geom.Pt(rng.Float64()*90-9, rng.Float64()*90-9)
			ed = geom.Edit{Op: geom.EditAdd, TSV: geom.TSV{Center: c}}
			ew = EditWire{Op: "add", X: c.X, Y: c.Y}
		}
		if err := ed.Apply(probe, minPitch); err != nil {
			continue // invalid against the running batch; redraw
		}
		edits = append(edits, ed)
		wires = append(wires, ew)
	}
	return edits, wires
}

// chaosCheckParity fetches the served map and compares it against a
// from-scratch full-mode evaluation of the mirror placement.
func chaosCheckParity(t *testing.T, c *http.Client, url string, mirror *geom.Placement) {
	t.Helper()
	var mp MapResponse
	if resp := doJSON(t, c, "GET", url+"/map?component=xx&values=1", nil, &mp); resp.StatusCode != http.StatusOK {
		t.Fatalf("map after recovery: status %d", resp.StatusCode)
	}
	st := material.Baseline(material.BCB)
	grid, err := field.NewGrid(mirrorPlacement().Bounds(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.New(st, mirror.Clone(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]tensor.Stress, grid.Len())
	if err := an.MapInto(context.Background(), want, grid.Points(), core.ModeFull); err != nil {
		t.Fatal(err)
	}
	if len(mp.Values) != len(want) {
		t.Fatalf("served %d values, want %d", len(mp.Values), len(want))
	}
	for i, v := range mp.Values {
		if d := math.Abs(v - want[i].XX); d > 1e-9 {
			t.Fatalf("recovered map differs from never-crashed reference by %g MPa at point %d", d, i)
		}
	}
}

// TestChaosKillReplay drives a session through random edit batches
// interleaved with crashes — hard kills, kills mid-journal-append (torn
// writes), and graceful shutdowns — and after every recovery asserts
// the served stress map is within 1e-9 MPa of a never-crashed reference
// evaluation of the acknowledged edit history.
func TestChaosKillReplay(t *testing.T) {
	defer faultinject.Reset()
	root := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	st := material.Baseline(material.BCB)
	minPitch := 2 * st.RPrime
	mirror := mirrorPlacement()

	opts := Options{WALDir: root, SnapshotEvery: 3}
	srv := NewServer(opts)
	if _, err := srv.Recover(context.Background()); err != nil {
		t.Fatalf("initial recover: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := ts.Client()

	var created CreateResponse
	if resp := doJSON(t, c, "POST", ts.URL+"/v1/placements", chaosPlacement(), &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	id := created.ID

	// reopen simulates a crash (or finishes a graceful stop) and brings
	// up a fresh server over the same WAL directory.
	reopen := func(graceful bool) {
		t.Helper()
		ts.Close()
		if graceful {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv.Close(ctx); err != nil {
				t.Fatalf("graceful close: %v", err)
			}
			cancel()
		}
		srv = NewServer(opts)
		if n, err := srv.Recover(context.Background()); err != nil || n != 1 {
			t.Fatalf("recover: %d sessions, err %v", n, err)
		}
		ts = httptest.NewServer(srv.Handler())
		c = ts.Client()
	}
	defer func() { ts.Close() }()

	for round := 0; round < 6; round++ {
		base := ts.URL + "/v1/placements/" + id
		// A few acknowledged batches, mirrored locally.
		for b := 0; b < 1+rng.Intn(3); b++ {
			edits, wires := randomBatch(rng, mirror, minPitch)
			var er EditsResponse
			if resp := doJSON(t, c, "POST", base+"/edits", EditsRequest{Edits: wires}, &er); resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: edits status %d", round, resp.StatusCode)
			}
			for _, ed := range edits {
				if err := ed.Apply(mirror, minPitch); err != nil {
					t.Fatalf("round %d: mirror apply: %v", round, err)
				}
			}
		}

		switch round % 3 {
		case 0: // hard kill after the acks
			reopen(false)
		case 1: // torn write: the batch dies mid-append, then a hard kill
			_, wires := randomBatch(rng, mirror, minPitch)
			faultinject.Set("wal.append.write", faultinject.Fault{ShortWrite: rng.Intn(20), Times: 1})
			resp := doJSON(t, c, "POST", base+"/edits", EditsRequest{Edits: wires}, nil)
			faultinject.Reset()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("round %d: torn-write batch status %d, want 503", round, resp.StatusCode)
			}
			// The un-acknowledged batch is NOT applied to the mirror; the
			// session is quarantined until the restart.
			if resp := doJSON(t, c, "GET", base+"/map", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("round %d: quarantined map status %d, want 503", round, resp.StatusCode)
			}
			reopen(false)
		case 2: // graceful shutdown (drain + final snapshot)
			reopen(true)
		}
		chaosCheckParity(t, c, ts.URL+"/v1/placements/"+id, mirror)
	}

	// The recovered session keeps serving edits after the last crash.
	edits, wires := randomBatch(rng, mirror, minPitch)
	if resp := doJSON(t, c, "POST", ts.URL+"/v1/placements/"+id+"/edits", EditsRequest{Edits: wires}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos edits: status %d", resp.StatusCode)
	}
	for _, ed := range edits {
		if err := ed.Apply(mirror, minPitch); err != nil {
			t.Fatal(err)
		}
	}
	chaosCheckParity(t, c, ts.URL+"/v1/placements/"+id, mirror)
}

// TestChaosDeadlineAbortsFlush pins the cooperative-cancellation path
// end to end: a compute deadline that fires mid-flush yields a 504
// within roughly one tile's work of the deadline, and the session heals
// on the next request.
func TestChaosDeadlineAbortsFlush(t *testing.T) {
	defer faultinject.Reset()
	const deadline = 300 * time.Millisecond
	srv := NewServer(Options{RequestTimeout: deadline})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	var created CreateResponse
	if resp := doJSON(t, c, "POST", ts.URL+"/v1/placements", chaosPlacement(), &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	base := ts.URL + "/v1/placements/" + created.ID

	// Moving every TSV by (2, 2) dirties all 49 tiles of the session
	// (12.5 µm tiles over the 82×82 µm grid). The flush drains them in
	// ceil(49/workers) rounds, one core.tile.eval firing per tile, so a
	// per-tile delay of 10×deadline/rounds makes the uncancelled flush
	// take 10× the deadline: 120 ms per tile on 2 CPUs, 231 ms on 4.
	// The handler must abort instead of running it out.
	const dirtyTiles = 49
	workers := min(runtime.NumCPU(), dirtyTiles)
	rounds := (dirtyTiles + workers - 1) / workers
	delay := 10 * deadline / time.Duration(rounds)
	st := material.Baseline(material.BCB)
	mirror := mirrorPlacement()
	var wires []EditWire
	for i, tw := range chaosPlacement().TSVs {
		to := geom.Pt(tw.X+2, tw.Y+2)
		wires = append(wires, EditWire{Op: "move", Index: i, X: to.X, Y: to.Y})
		if err := (geom.Edit{Op: geom.EditMove, Index: i, TSV: geom.TSV{Center: to}}).Apply(mirror, 2*st.RPrime); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Set("core.tile.eval", faultinject.Fault{Delay: delay})
	start := time.Now()
	var em errorResponse
	resp := doJSON(t, c, "POST", base+"/edits", EditsRequest{Edits: wires}, &em)
	elapsed := time.Since(start)
	faultinject.Reset()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline flush: status %d (%s), want 504", resp.StatusCode, em.Error)
	}
	// Deadline plus generous slack for scheduler jitter under -race —
	// far below the seconds a non-cooperative flush would take.
	if elapsed > 3*time.Second {
		t.Fatalf("aborted flush took %v", elapsed)
	}

	// A 504 means the edits reached the engine's placement but the map
	// is stale; the engine owes the dirty points. With the fault
	// cleared, the next request's flush completes them and the served
	// map must match a from-scratch evaluation of the edited placement.
	chaosCheckParity(t, c, base, mirror)
}
