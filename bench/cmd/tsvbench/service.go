package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/serve"
	"tsvstress/internal/tensor"
)

// parityTolMPa is the largest per-component difference a served field
// may show against a from-scratch evaluation.
const parityTolMPa = 1e-9

var structure = material.Baseline(material.BCB)

// minPitch is the design-rule pitch every edit must respect.
var minPitch = 2 * structure.RPrime

// topology is a gateway in front of tsvserve replicas, each a child
// process with its own WAL directory.
type topology struct {
	replicas []*child
	walDirs  []string
	gate     *child
}

// startTopology spawns nrep WAL-backed replicas and a gateway over
// them, and returns once the gateway reports every replica alive.
func startTopology(bins binaries, dir string, nrep int, serveArgs ...string) (*topology, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &topology{}
	// One failed /readyz probe unroutes a replica and migrates its
	// sessions; the long probe deadline keeps a busy host from doing
	// that to a healthy one.
	gateArgs := []string{"-seed", "7", "-health-timeout", "5s"}
	for i := 0; i < nrep; i++ {
		name := "r" + strconv.Itoa(i)
		addr, err := freeAddr()
		if err != nil {
			t.stop()
			return nil, err
		}
		wal := filepath.Join(dir, name+"-wal")
		args := append([]string{"-addr", addr, "-wal", wal}, serveArgs...)
		c, err := spawn(dir, name, "http://"+addr, bins.serve, args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.replicas = append(t.replicas, c)
		t.walDirs = append(t.walDirs, wal)
		gateArgs = append(gateArgs, "-replica", name+"=http://"+addr+"="+wal)
	}
	for _, c := range t.replicas {
		if err := c.waitReady(30 * time.Second); err != nil {
			t.stop()
			return nil, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		t.stop()
		return nil, err
	}
	t.gate, err = spawn(dir, "gate", "http://"+addr, bins.gate, append([]string{"-addr", addr}, gateArgs...)...)
	if err != nil {
		t.stop()
		return nil, err
	}
	if err := t.gate.waitReady(30 * time.Second); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// stop stops every process. The directory stays: see config.runBase.
func (t *topology) stop() {
	if t.gate != nil {
		t.gate.stop()
	}
	for _, c := range t.replicas {
		c.stop()
	}
}

// rssMB sums the peak resident sets of the topology's processes.
func (t *topology) rssMB() (float64, error) {
	total := int64(0)
	for _, c := range append([]*child{t.gate}, t.replicas...) {
		kb, err := c.hwmKB()
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return float64(total) / 1024, nil
}

// owner returns the replica whose WAL holds session id, or -1.
func (t *topology) owner(id string) int {
	for i, d := range t.walDirs {
		if _, err := os.Stat(filepath.Join(d, id)); err == nil {
			return i
		}
	}
	return -1
}

// counters sums the named fields of the replicas' "tsvserve" expvar
// maps.
func (t *topology) counters(ctx context.Context, keys ...string) (map[string]float64, error) {
	out := make(map[string]float64, len(keys)+1)
	for _, c := range t.replicas {
		m, err := scrapeVars(ctx, c.url, "tsvserve")
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			out[k] += number(m, k)
		}
		// Session-targeted requests: everything but create and import.
		if eps, ok := m["endpoint_requests_total"].(map[string]any); ok {
			for _, route := range []string{"edits", "map", "screen", "aging"} {
				out["session_requests"] += number(eps, route)
			}
		}
	}
	return out, nil
}

// slot is one session position of a serving workload. Planning state
// advances when a phase is planned, assuming every op succeeds; run
// state is written only by the slot's connection while a phase runs.
type slot struct {
	// planning state
	live   bool
	req    serve.CreateRequest // the create that made the planned session
	mirror *geom.Placement     // the planned session's placement after every planned edit
	// run state
	id      string
	tainted bool // an op on this session failed, so its server state is unknown
}

// placementOf converts a create request's TSVs to a placement.
func placementOf(tsvs []serve.TSVWire) *geom.Placement {
	pl := &geom.Placement{TSVs: make([]geom.TSV, len(tsvs))}
	for i, t := range tsvs {
		pl.TSVs[i] = geom.TSV{Center: geom.Pt(t.X, t.Y)}
	}
	return pl
}

// wireOf converts a placement to create-request TSVs.
func wireOf(pl *geom.Placement) []serve.TSVWire {
	out := make([]serve.TSVWire, pl.Len())
	for i, t := range pl.TSVs {
		out[i] = serve.TSVWire{X: t.Center.X, Y: t.Center.Y}
	}
	return out
}

// moveBatch draws n moves of up to ±4 µm per axis that stay legal
// against the mirror, applying them to it: the engineering-change edit
// of an existing layout.
func moveBatch(rng *rand.Rand, mirror *geom.Placement, n int) []serve.EditWire {
	var out []serve.EditWire
	for len(out) < n {
		idx := rng.Intn(mirror.Len())
		c := mirror.TSVs[idx].Center.Add(geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4))
		if (geom.Edit{Op: geom.EditMove, Index: idx, TSV: geom.TSV{Center: c}}).Apply(mirror, minPitch) != nil {
			continue
		}
		out = append(out, serve.EditWire{Op: "move", Index: idx, X: c.X, Y: c.Y})
	}
	return out
}

// mixedBatch draws n adds, removes and moves legal against the mirror,
// applying them to it: the edit mix of a small exploratory session (a
// session never shrinks below four TSVs).
func mixedBatch(rng *rand.Rand, mirror *geom.Placement, n int) []serve.EditWire {
	var out []serve.EditWire
	for len(out) < n {
		var ed geom.Edit
		var ew serve.EditWire
		switch op := rng.Intn(3); {
		case op == 1 && mirror.Len() > 4:
			idx := rng.Intn(mirror.Len())
			ed = geom.Edit{Op: geom.EditRemove, Index: idx}
			ew = serve.EditWire{Op: "remove", Index: idx}
		case op == 2:
			idx := rng.Intn(mirror.Len())
			c := mirror.TSVs[idx].Center.Add(geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4))
			ed = geom.Edit{Op: geom.EditMove, Index: idx, TSV: geom.TSV{Center: c}}
			ew = serve.EditWire{Op: "move", Index: idx, X: c.X, Y: c.Y}
		default:
			c := geom.Pt(rng.Float64()*90-10, rng.Float64()*90-10)
			ed = geom.Edit{Op: geom.EditAdd, TSV: geom.TSV{Center: c}}
			ew = serve.EditWire{Op: "add", X: c.X, Y: c.Y}
		}
		if ed.Apply(mirror, minPitch) != nil {
			continue
		}
		out = append(out, ew)
	}
	return out
}

// checkParity fetches the served xx, yy and xy fields of a session and
// compares each point with a from-scratch Full-mode core.MapInto over
// the mirror placement, on the grid the session was created with.
func checkParity(ctx context.Context, base string, s *slot) error {
	grid, err := field.NewGrid(placementOf(s.req.TSVs).Bounds(s.req.Margin), s.req.Spacing)
	if err != nil {
		return err
	}
	an, err := core.New(structure, s.mirror.Clone(), core.Options{})
	if err != nil {
		return err
	}
	want := make([]tensor.Stress, grid.Len())
	if err := an.MapInto(ctx, want, grid.Points(), core.ModeFull); err != nil {
		return err
	}
	c := newConnClient()
	for _, comp := range []string{"xx", "yy", "xy"} {
		var mp serve.MapResponse
		u := base + "/v1/placements/" + url.PathEscape(s.id) + "/map?values=1&component=" + comp
		if o := doJSON(ctx, c, "GET", u, nil, &mp); o.failed() {
			return fmt.Errorf("session %s: read %s: status %d: %v", s.id, comp, o.status, o.err)
		}
		if len(mp.Values) != len(want) {
			return fmt.Errorf("session %s: served %d values, reference has %d", s.id, len(mp.Values), len(want))
		}
		for i, v := range mp.Values {
			w, _ := want[i].Component(comp)
			if d := math.Abs(v - w); d > parityTolMPa {
				return fmt.Errorf("session %s: %s at point %d differs by %g MPa", s.id, comp, i, d)
			}
		}
	}
	return nil
}
