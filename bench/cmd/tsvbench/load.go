package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// plannedOp is one request of an open-loop phase. The whole phase is
// planned before it starts, so its content never depends on timing.
type plannedOp struct {
	due  time.Duration // offset from the phase start
	conn int           // the connection that carries it
	slot int           // the session slot it targets
	kind string        // route: create, edits, map, map_values, screen, aging, delete
	body []byte
}

// outcome is what one request returned.
type outcome struct {
	status   int
	degraded bool
	err      error
}

// failed reports whether the request counts against the run: a
// transport error, any non-2xx status (5xx, 429 and 503 included) or a
// response the server degraded to Stage I only.
func (o outcome) failed() bool {
	return o.err != nil || o.status < 200 || o.status > 299 || o.degraded
}

// opRecord is the measured fate of one planned op. Latency runs from
// the due time, so a stall that delays later requests is charged to
// them too.
type opRecord struct {
	due, sent, done time.Duration
	// lag is how late the generator sent an op it was free to send:
	// sent minus the later of the due time and the connection's
	// previous completion.
	lag time.Duration
	out outcome
}

func (r opRecord) latency() time.Duration { return r.done - r.due }

// evenSchedule returns the due offsets of an open loop at a fixed rate
// over dur: one op every 1/rate, the first at zero.
func evenSchedule(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// runOpenLoop sends ops at their due times, each on its own connection
// goroutine in plan order: a connection that is still busy when an op
// falls due sends it as soon as it frees up, and the wait counts in the
// op's latency. Ops still unsent when ctx ends fail with its error.
// With a tracer, each op is an "op" span from due to done under parent,
// with a "send" child span from send to done.
func runOpenLoop(ctx context.Context, ops []plannedOp, nconn int, exec func(ctx context.Context, op *plannedOp) outcome, tr *tracer, parent int) []opRecord {
	recs := make([]opRecord, len(ops))
	byConn := make([][]int, nconn)
	for i, op := range ops {
		byConn[op.conn] = append(byConn[op.conn], i)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range byConn {
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			var prevDone time.Duration
			for _, i := range idx {
				op := &ops[i]
				rec := &recs[i]
				rec.due = op.due
				if wait := time.Until(start.Add(op.due)); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				if err := ctx.Err(); err != nil {
					rec.out = outcome{err: err}
					rec.sent, rec.done = time.Since(start), time.Since(start)
					continue
				}
				rec.sent = time.Since(start)
				rec.lag = rec.sent - max(op.due, prevDone)
				rec.out = exec(ctx, op)
				rec.done = time.Since(start)
				prevDone = rec.done
				if tr != nil {
					id := tr.record("op:"+op.kind, parent, i, start.Add(rec.due), start.Add(rec.done))
					tr.record("send", id, i, start.Add(rec.sent), start.Add(rec.done))
				}
			}
		}(byConn[c])
	}
	wg.Wait()
	return recs
}

// newConnClient returns a client that holds at most one connection, so
// each generator goroutine is one connection to the server.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and copies the whole response body to w.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, w io.Writer) outcome {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return outcome{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Tsvgate-Tenant", "bench")
	resp, err := c.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode, degraded: resp.Header.Get("X-Tsvserve-Degraded") != ""}
	if _, err := io.Copy(w, resp.Body); err != nil {
		o.err = err
	}
	return o
}

// doRaw sends one request and reads the whole response body.
func doRaw(ctx context.Context, c *http.Client, method, url string, body []byte) (outcome, []byte) {
	var buf bytes.Buffer
	o := do(ctx, c, method, url, body, &buf)
	return o, buf.Bytes()
}

// doJSON sends one request and decodes a 2xx body into out. With out
// nil the body is dropped as it streams in: an eco-edit field read is
// megabytes, and buffering it would make the generator collect garbage
// mid-phase, with stop-the-world pauses that delay its sends.
func doJSON(ctx context.Context, c *http.Client, method, url string, body []byte, out any) outcome {
	if out == nil {
		return do(ctx, c, method, url, body, io.Discard)
	}
	o, raw := doRaw(ctx, c, method, url, body)
	if !o.failed() {
		if err := json.Unmarshal(raw, out); err != nil {
			o.err = fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return o
}
