package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"time"

	"tsvstress/internal/geom"
	"tsvstress/internal/serve"
)

// serviceSpec is a serving workload: a topology, its sessions, and an
// op mix sent open loop at two frozen rates.
type serviceSpec struct {
	replicas  int
	serveArgs []string
	// conns is how many connections the generator opens; a session's
	// ops always ride the same one.
	conns int
	// nominal and peak are the two phases' rates in ops/s, frozen when
	// the benchmark was defined (see bench/README.md, Calibration).
	nominal, peak float64
	// slo is the latency limit an op must meet to count as goodput.
	slo time.Duration
	// slots returns the sessions created at set-up, in planning state.
	slots func(seed int64, tiny bool) ([]*slot, error)
	// plan fills in the ops of a run's phase-th phase at the given due
	// times, advancing the slots' planning state as if every op
	// succeeds. The ops are a pure function of the arguments.
	plan func(seed int64, phase int, due []time.Duration, slots []*slot) []plannedOp
	// verify picks the slots whose fields are checked after a phase.
	verify func(rng *rand.Rand, slots []*slot) []int
	// ladder picks the session the traced run replays down the ladder.
	ladder func(rng *rand.Rand, slots []*slot) ladderInput
}

const (
	// svcSetups is how many times a run builds its topology and
	// sessions; setup_s is their median.
	svcSetups = 5
	// drainGrace bounds how long a phase waits for ops still queued
	// when its schedule ends.
	drainGrace = 30 * time.Second
	// maxLagP99Ms is the generator lateness (99th percentile, ms) past
	// which a run's latencies measure the generator as well as the
	// service: such a run prints a warning.
	maxLagP99Ms = 5.0
)

var errNoSession = errors.New("target session was never created")

var services = map[string]serviceSpec{
	"eco-edit": {
		replicas: 1,
		conns:    2, // one per session
		nominal:  8, peak: 10,
		slo:    250 * time.Millisecond,
		slots:  ecoSlots,
		plan:   ecoPlan,
		verify: func(_ *rand.Rand, slots []*slot) []int { return []int{0, 1} },
		ladder: ecoLadder,
	},
	"fleet-mix": {
		replicas: 2,
		// As many compute slots as connections: no request ever waits for
		// admission, so a disk stall cannot shed load (503s, Stage-I-only
		// flushes) or report a replica overloaded and unroute it.
		serveArgs: []string{"-max-sessions", "4096", "-max-live-sessions", "64", "-max-inflight", strconv.Itoa(fleetConns)},
		conns:     fleetConns,
		nominal:   14, peak: 20,
		slo:    250 * time.Millisecond,
		slots:  fleetSlots,
		plan:   fleetPlan,
		verify: fleetVerify,
		ladder: fleetLadder,
	},
}

// requestFor is req with its TSVs replaced by pl's.
func requestFor(pl *geom.Placement, req serve.CreateRequest) serve.CreateRequest {
	req.TSVs = wireOf(pl)
	return req
}

// phaseRNG is the content stream of one phase of a run.
func phaseRNG(seed int64, phase int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(phase)))
}

// deal returns a seeded shuffle of a deck holding each card count
// times. Drawing op kinds and batch sizes from such decks keeps every
// run's mix exact.
func deal[K cmp.Ordered](rng *rand.Rand, counts map[K]int) []K {
	keys := make([]K, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var deck []K
	for _, k := range keys {
		for i := 0; i < counts[k]; i++ {
			deck = append(deck, k)
		}
	}
	rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
	return deck
}

// runService runs eco-edit or fleet-mix against spawned tsvserve and
// tsvgate processes.
func runService(ctx context.Context, cfg config, spec serviceSpec) (*runResult, error) {
	bins, err := buildBinaries(cfg.root, cfg.binDir())
	if err != nil {
		return nil, err
	}
	res := newRunResult()

	var topo *topology
	var slots []*slot
	var setups []float64
	for k := 0; k < svcSetups; k++ {
		if topo != nil {
			topo.stop()
		}
		t0 := time.Now()
		if topo, err = startTopology(bins, cfg.runDir(fmt.Sprintf("topo%d", k)), spec.replicas, spec.serveArgs...); err != nil {
			return nil, err
		}
		if slots, err = spec.slots(cfg.seed, cfg.tiny); err != nil {
			topo.stop()
			return nil, err
		}
		if err := createAll(ctx, topo.gate.url, slots, spec.conns); err != nil {
			topo.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer topo.stop()
	res.e2e["setup_s"] = median(setups)
	res.note("%d sessions on %d replica(s)", len(slots), spec.replicas)

	clients := make([]*http.Client, spec.conns)
	for i := range clients {
		clients[i] = newConnClient()
	}
	exec := func(ctx context.Context, op *plannedOp) outcome {
		return execOp(ctx, clients[op.conn], topo.gate.url, slots[op.slot], op)
	}
	phaseN := 0
	var tr *tracer
	var all []opRecord
	runPhase := func(name string, rate float64, dur time.Duration) []opRecord {
		ops := spec.plan(cfg.seed, phaseN, evenSchedule(rate, dur), slots)
		rng := rand.New(rand.NewSource(cfg.seed ^ int64(phaseN)<<32))
		phaseN++
		pctx, cancel := context.WithTimeout(ctx, dur+drainGrace)
		defer cancel()
		sp := tr.begin("phase:"+name, -1, -1)
		recs := runOpenLoop(pctx, ops, spec.conns, exec, tr, sp)
		tr.end(sp)
		failed := 0
		for _, r := range recs {
			if r.out.failed() {
				failed++
			}
		}
		res.count(len(recs), failed)
		all = append(all, recs...)
		// Parity, outside the timed window. A session one of whose ops
		// failed is left out: the failure already counts, and its server
		// state is unknown. A phase that leaves none to check fails.
		bad, checked := 0, 0
		var msgs []string
		for _, i := range spec.verify(rng, slots) {
			s := slots[i]
			if s.tainted || s.id == "" {
				res.note("%s: slot %d not checked, an earlier op on it failed", name, i)
				continue
			}
			checked++
			if err := checkParity(ctx, topo.gate.url, s); err != nil {
				bad++
				msgs = append(msgs, name+": "+err.Error())
			}
		}
		if checked == 0 {
			checked, bad = 1, 1
			msgs = append(msgs, name+": no session could be checked")
		}
		res.check(checked, bad, msgs...)
		return recs
	}

	half := cfg.seconds / 2
	var nominal, peak []opRecord
	var before map[string]float64
	tracedFrom := 0 // the first record of the traced phases in all
	if cfg.trace {
		quarter := half / 2
		untraced := runPhase("nominal", spec.nominal, quarter)
		runPhase("peak", spec.peak, quarter)
		tracedFrom = len(all)
		tr = newTracer()
		if before, err = serviceCounters(ctx, topo); err != nil {
			return nil, err
		}
		nominal = runPhase("nominal", spec.nominal, quarter)
		peak = runPhase("peak", spec.peak, quarter)
		res.layer["trace.overhead_pct"] = overheadPct(latencies(untraced), latencies(nominal))
		half = quarter
	} else {
		nominal = runPhase("nominal", spec.nominal, half)
		peak = runPhase("peak", spec.peak, half)
	}

	nom, pk := sortedMs(latencies(nominal)), sortedMs(latencies(peak))
	res.e2e["p50_ms"] = hdQuantile(nom, 0.5)
	res.e2e["peak_p50_ms"] = hdQuantile(pk, 0.5)
	// Goodput is over the phase as it ran, from its start to its last
	// reply. Over the planned length it would read the offered rate
	// exactly whenever every op meets the SLO.
	good, last := 0, time.Duration(0)
	for _, r := range peak {
		last = max(last, r.done)
		if !r.out.failed() && r.latency() <= spec.slo {
			good++
		}
	}
	res.e2e["goodput_rps"] = float64(good) / last.Seconds()
	res.note("nominal %g ops/s: %s", spec.nominal, tailNote(nom))
	res.note("peak %g ops/s: %s, %d within the %v SLO", spec.peak, tailNote(pk), good, spec.slo)
	checkGenerator(res, all)

	if cfg.trace {
		after, err := serviceCounters(ctx, topo)
		if err != nil {
			return nil, err
		}
		recordCounters(res, before, after)
		recordGenerator(res, all[tracedFrom:], 2*half)
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x1add))
		if err := runLadder(ctx, cfg, spec.ladder(rng, slots), topo, tr, res); err != nil {
			return nil, err
		}
		if err := tr.write(cfg.tracePath()); err != nil {
			return nil, err
		}
	}
	rss, err := topo.rssMB()
	if err != nil {
		return nil, err
	}
	res.e2e["peak_rss_mb"] = rss
	return res, nil
}

// createAll creates every live slot's session through the gateway,
// closed loop, slot i on connection i mod conns.
func createAll(ctx context.Context, gate string, slots []*slot, conns int) error {
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			client := newConnClient()
			for i := c; i < len(slots); i += conns {
				s := slots[i]
				if !s.live {
					continue
				}
				if o := execOp(ctx, client, gate, s, &plannedOp{kind: "create", body: mustJSON(s.req)}); o.failed() {
					errs <- fmt.Errorf("set-up create of slot %d: status %d: %v", i, o.status, o.err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// execOp sends one op to the gateway and updates the slot's run state.
func execOp(ctx context.Context, c *http.Client, gate string, s *slot, op *plannedOp) outcome {
	if op.kind == "create" {
		var cr serve.CreateResponse
		o := doJSON(ctx, c, http.MethodPost, gate+"/v1/placements", op.body, &cr)
		s.id, s.tainted = cr.ID, o.failed()
		return o
	}
	if s.id == "" {
		return outcome{err: errNoSession}
	}
	base := gate + "/v1/placements/" + s.id
	var o outcome
	switch op.kind {
	case "edits":
		o = doJSON(ctx, c, http.MethodPost, base+"/edits", op.body, nil)
	case "map":
		o = doJSON(ctx, c, http.MethodGet, base+"/map?component=vm", nil, nil)
	case "map_values":
		o = doJSON(ctx, c, http.MethodGet, base+"/map?component=vm&values=1", nil, nil)
	case "screen":
		o = doJSON(ctx, c, http.MethodGet, base+"/screen", nil, nil)
	case "aging":
		o = doJSON(ctx, c, http.MethodPost, base+"/aging", op.body, nil)
	case "delete":
		o = doJSON(ctx, c, http.MethodDelete, base, nil, nil)
		if !o.failed() {
			s.id = ""
		}
	default:
		o = outcome{err: fmt.Errorf("unknown op kind %q", op.kind)}
	}
	if o.failed() {
		s.tainted = true
	}
	return o
}

func latencies(recs []opRecord) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.latency()
	}
	return out
}

// serviceCounters scrapes the counters the per-layer metrics take
// deltas of.
func serviceCounters(ctx context.Context, topo *topology) (map[string]float64, error) {
	out, err := topo.counters(ctx, "hydrations_total", "evictions_total", "degraded_responses_total",
		"admission_rejects_total", "snapshots_total", "wal_appends_total")
	if err != nil {
		return nil, err
	}
	gv, err := scrapeVars(ctx, topo.gate.url, "tsvgate")
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"routed_total", "migrations_total", "forward_errors_total"} {
		out["gate."+k] = number(gv, k)
	}
	return out, nil
}

// recordCounters stores the counter deltas between two scrapes.
func recordCounters(res *runResult, before, after map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	m := res.layer
	m["serve.hydrations"] = d("hydrations_total")
	m["serve.evictions"] = d("evictions_total")
	m["serve.hydration_ratio"] = 0
	if n := d("session_requests"); n > 0 {
		m["serve.hydration_ratio"] = d("hydrations_total") / n
	}
	m["serve.degraded"] = d("degraded_responses_total")
	m["serve.admission_rejects"] = d("admission_rejects_total")
	m["serve.snapshots"] = d("snapshots_total")
	m["serve.wal_appends"] = d("wal_appends_total")
	m["gateway.routed"] = d("gate.routed_total")
	m["gateway.migrations"] = d("gate.migrations_total")
	m["gateway.forward_errors"] = d("gate.forward_errors_total")
}

// sentLags returns the generator lateness of every op it sent, in
// ascending ms; ops its context ended before sending are left out.
func sentLags(recs []opRecord) []float64 {
	var lags []time.Duration
	for _, r := range recs {
		if !errors.Is(r.out.err, context.DeadlineExceeded) && !errors.Is(r.out.err, context.Canceled) {
			lags = append(lags, r.lag)
		}
	}
	return sortedMs(lags)
}

// checkGenerator notes the generator's lag p99 over every op of a run
// and warns when it exceeds maxLagP99Ms. It fails nothing: a late send
// is charged to the op's latency, which runs from the due time, so the
// lateness shows in the metrics instead of hiding, and it is the host's
// scheduling, not the program's output.
func checkGenerator(res *runResult, recs []opRecord) {
	p99 := quantile(sentLags(recs), 0.99)
	if p99 > maxLagP99Ms {
		res.note("WARNING: generator lag p99 %.3g ms exceeds %g ms: the latencies include the generator's lateness", p99, maxLagP99Ms)
		return
	}
	res.note("generator lag p99 %.3g ms", p99)
}

// recordGenerator stores the open-loop generator's own numbers.
func recordGenerator(res *runResult, recs []opRecord, dur time.Duration) {
	l := sentLags(recs)
	res.layer["gen.lag_p99_ms"] = quantile(l, 0.99)
	res.layer["gen.offered_rps"] = float64(len(recs)) / dur.Seconds()
	res.layer["gen.sent"] = float64(len(l))
}
