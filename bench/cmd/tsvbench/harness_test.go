package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0.01, 1}, {1, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
}

func TestHarrellDavis(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// References by numerical integration of the Beta weights.
	for _, c := range []struct{ q, want float64 }{{0.5, 5.5}, {0.25, 2.998687}, {0.9, 9.43512}} {
		if got := hdQuantile(s, c.q); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("hdQuantile(1..10, %g) = %.6f, want %.6f", c.q, got, c.want)
		}
	}
	if got := hdQuantile([]float64{4, 4, 4, 4}, 0.95); math.Abs(got-4) > 1e-12 {
		t.Errorf("constant sample: got %g", got)
	}
	big := make([]float64, 1500)
	for i := range big {
		big[i] = float64(i)
	}
	lo, hi := quantile(big, 0.94), quantile(big, 0.96)
	if got := hdQuantile(big, 0.95); got < lo || got > hi {
		t.Errorf("large sample p95 %g outside the nearest-rank p94..p96 [%g, %g]", got, lo, hi)
	}
}

func TestTailLevelLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {5, 0.5}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSchedulePureFunction(t *testing.T) {
	due := evenSchedule(40, 2*time.Second)
	if len(due) != 80 || due[0] != 0 || due[79] != 1975*time.Millisecond {
		t.Fatalf("evenSchedule(40/s, 2s): %d ops, first %v, last %v", len(due), due[0], due[len(due)-1])
	}
	for name, spec := range services {
		plan := func(seed int64) []plannedOp {
			slots, err := spec.slots(seed, true)
			if err != nil {
				t.Fatal(err)
			}
			return spec.plan(seed, 0, evenSchedule(60, time.Second), slots)
		}
		a, b, c := plan(3), plan(3), plan(4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, rate and duration planned different ops", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 planned identical ops", name)
		}
		for _, op := range a {
			if op.conn < 0 || op.conn >= spec.conns {
				t.Fatalf("%s: op on connection %d", name, op.conn)
			}
		}
	}
}

func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	var first = make(chan struct{}, 1)
	first <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-first:
			time.Sleep(300 * time.Millisecond) // the stall
		default:
		}
	}))
	defer srv.Close()
	c := newConnClient()
	ops := make([]plannedOp, 5)
	for i := range ops {
		ops[i] = plannedOp{due: time.Duration(i) * 20 * time.Millisecond, kind: "map"}
	}
	recs := runOpenLoop(context.Background(), ops, 1, func(ctx context.Context, op *plannedOp) outcome {
		return doJSON(ctx, c, http.MethodGet, srv.URL, nil, nil)
	}, nil, -1)
	// Op 4 was due at 80 ms but could not be sent before the stalled op
	// 0 returned at ~300 ms: its latency from due time is at least
	// 300-80 ms, although its own request was instant.
	if got := recs[4].latency(); got < 200*time.Millisecond {
		t.Fatalf("op 4 latency %v: the stall was not charged to it", got)
	}
	if serviceTime := recs[4].done - recs[4].sent; serviceTime > 100*time.Millisecond {
		t.Fatalf("op 4 service time %v, want an instant reply", serviceTime)
	}
	for i, r := range recs {
		if r.out.failed() {
			t.Fatalf("op %d failed: %+v", i, r.out)
		}
	}
}

func TestLateGeneratorIsFlagged(t *testing.T) {
	warned := func(res *runResult) bool {
		return slices.ContainsFunc(res.notes, func(n string) bool { return strings.HasPrefix(n, "WARNING") })
	}
	recs := make([]opRecord, 200)
	for i := range recs {
		recs[i].lag = time.Millisecond
	}
	res := newRunResult()
	checkGenerator(res, recs)
	if warned(res) {
		t.Fatalf("1 ms lag p99 warned: %v", res.notes)
	}
	// Three late sends in 200 put the lag p99 at 8 ms. Ops the context
	// ended before sending do not count: their lag is not the generator's.
	for i := 0; i < 3; i++ {
		recs[i].lag = 8 * time.Millisecond
		recs[len(recs)-1-i] = opRecord{lag: time.Second, out: outcome{err: context.DeadlineExceeded}}
	}
	res = newRunResult()
	checkGenerator(res, recs)
	if !warned(res) {
		t.Fatalf("8 ms lag p99 not warned: %v", res.notes)
	}
	if res.badChecks != 0 || res.failed != 0 {
		t.Fatalf("8 ms lag p99: %d bad checks, %d failed; lateness is not an output error", res.badChecks, res.failed)
	}
	if got := quantile(sentLags(recs), 0.99); got != 8 {
		t.Fatalf("lag p99 %g ms, want 8", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 4, Parent: 1, Start: 15, End: 20},
	}
	want := []int64{100 - 40 - 10, 30 - 5, 20, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.record("y", id, 0, time.Now(), time.Now()) != -1 {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestDegradedResponseIsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Tsvserve-Degraded", "full->ls")
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	o := doJSON(context.Background(), newConnClient(), http.MethodGet, srv.URL, nil, nil)
	if o.status != http.StatusOK || !o.failed() {
		t.Fatalf("degraded 200 = %+v, failed() = %v; want a failure", o, o.failed())
	}
	for _, c := range []struct {
		o    outcome
		fail bool
	}{{outcome{status: 200}, false}, {outcome{status: 204}, false}, {outcome{status: 429}, true},
		{outcome{status: 503}, true}, {outcome{status: 500}, true}, {outcome{status: 422}, true},
		{outcome{err: context.DeadlineExceeded}, true}} {
		if c.o.failed() != c.fail {
			t.Errorf("%+v: failed() = %v, want %v", c.o, c.o.failed(), c.fail)
		}
	}
}

func TestZipfPickingDeterministic(t *testing.T) {
	draw := func() []int {
		p := newZipfPicker(9, phaseRNG(9, 0), 400)
		out := make([]int, 2000)
		for i := range out {
			out[i] = p.pick()
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed picked different slots")
	}
	hits := make(map[int]int)
	for _, s := range a {
		hits[s]++
	}
	hot := newZipfPicker(9, phaseRNG(9, 0), 400).perm[0]
	for s, n := range hits {
		if n > hits[hot] {
			t.Fatalf("slot %d drew %d ops, more than the rank-1 slot %d (%d)", s, n, hot, hits[hot])
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, tsvbench runs %v", names, workloads)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit+" "+m.Better)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit+" "+m.better)
		}
		sort.Strings(g)
		sort.Strings(w)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\ntsvbench       %v", kind, g, w)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
