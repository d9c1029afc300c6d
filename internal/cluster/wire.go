// Package cluster is the sharded multi-process evaluation tier: a
// coordinator that partitions a core.Tiling across a fleet of worker
// processes (cmd/tsvworker) and merges their tile results back into the
// caller's grid, with output pinned to single-process core.MapInto
// parity.
//
// The division of labor follows the paper's structure: the expensive
// solves (single-TSV Lamé constants, per-harmonic interactive systems) are
// placement-independent, so every worker derives them locally from the
// structure + options shipped once at job init — only tile assignments
// (bare tile ids) and tile results (stress values in tile point order)
// cross the wire afterwards. Both ends build the same deterministic
// Tiling from the shared (points, cutoff), which is what makes a tile
// id a complete work description.
//
// Failure model: workers are stateless caches of their job — any tile
// may be re-evaluated by any worker at any time with an identical
// result, so the coordinator reassigns the chunks of a dead worker,
// speculatively re-executes stragglers' chunks on idle workers, and
// merges whichever copy completes first. Cancellation propagates from
// the coordinator's context through the in-flight HTTP requests into
// each worker's per-tile cancellation checks (core.EvalTiles).
package cluster

//tsvlint:apiboundary
//tsvlint:hotpath

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"tsvstress/internal/core"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// protoVersion is the wire-protocol version; ping exchanges it and the
// coordinator refuses workers speaking another version. Version 2
// introduced the batched result frame (frameResultBatch): one frame per
// eval chunk instead of one per tile, which cuts the header and
// read-loop traffic on the many-small-tiles shape a fine tiling
// produces. Version 3 retired the per-tile result frame (type 5) and job
// epochs: every job is one-shot and always initialized in full.
const protoVersion = 3

// Frame types. Every frame on the wire is length-prefixed:
//
//	u32 payload length (little-endian) | u8 type | payload
//
// so a reader can skip frames it does not expect and a decoder can
// bound its allocations before touching the payload.
const (
	frameInit        = 1 // JSON jobSpec
	framePlacement   = 2 // u32 n | n × (f64 x, f64 y) TSV centers
	framePoints      = 3 // u32 n | n × (f64 x, f64 y) simulation points
	frameAssign      = 4 // u8 mode | u32 n | n × u32 tile id
	frameDone        = 6 // u32 tiles evaluated (type 5 is retired)
	frameError       = 7 // UTF-8 message
	frameResultBatch = 8 // u32 n | n × core tile-result record (one per chunk)
)

// maxFramePayload bounds a single frame. The largest legitimate frame
// is the point set of a job (24 B/point would allow ~10M points);
// anything larger is a corrupt or hostile length.
const maxFramePayload = 1 << 28

// frameHeaderLen is u32 length + u8 type.
const frameHeaderLen = 5

// growBytes returns a byte buffer of length n, reusing b's backing
// array when it is large enough — the amortized realloc path of every
// reused wire buffer (the grow* prefix is the allocfree analyzer's
// amortization allowance).
func growBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// growBytesSpare ensures b has at least spare free capacity beyond its
// length, preserving its contents.
func growBytesSpare(b []byte, spare int) []byte {
	if cap(b)-len(b) < spare {
		nb := make([]byte, len(b), len(b)+spare)
		copy(nb, b)
		return nb
	}
	return b
}

// growStressSpare ensures s has at least spare free capacity beyond
// its length, preserving its contents.
func growStressSpare(s []tensor.Stress, spare int) []tensor.Stress {
	if cap(s)-len(s) < spare {
		ns := make([]tensor.Stress, len(s), len(s)+spare)
		copy(ns, s)
		return ns
	}
	return s
}

// appendFrame appends a framed payload to buf.
//
//tsvlint:allocfree
func appendFrame(buf []byte, typ byte, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, typ)
	return append(buf, payload...)
}

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame from r, rejecting oversized declarations
// before allocating.
func readFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	typ, payload, _, err = readFrameInto(r, nil)
	return typ, payload, err
}

// readFrameInto is readFrame with a caller-owned payload buffer: the
// payload is read into buf when it fits, and bufOut returns the
// (possibly grown) buffer for the next call. The coordinator's result
// drain reads one frame per chunk through this, so a steady-state eval
// stream touches the allocator only while the buffer is still growing
// toward the largest chunk.
//
//tsvlint:allocfree
func readFrameInto(r *bufio.Reader, buf []byte) (typ byte, payload, bufOut []byte, err error) {
	// The header is read into the reusable buffer, not a stack array: a
	// local array would escape through the io.ReadFull interface call
	// and cost one heap allocation per frame.
	buf = growBytes(buf, frameHeaderLen)
	if _, err := io.ReadFull(r, buf[:frameHeaderLen]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	typ = buf[4]
	if n > maxFramePayload {
		return 0, nil, buf, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", n, maxFramePayload)
	}
	buf = growBytes(buf, int(n))
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, fmt.Errorf("cluster: frame truncated: %w", err)
	}
	return typ, payload, buf, nil
}

// DecodeFrame splits one frame off the front of data — the byte-slice
// twin of readFrame, and the entry point the fuzz target drives. It
// never panics on malformed input.
func DecodeFrame(data []byte) (typ byte, payload, rest []byte, err error) {
	if len(data) < frameHeaderLen {
		return 0, nil, nil, fmt.Errorf("cluster: frame header truncated: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint32(data[:4])
	if n > maxFramePayload {
		return 0, nil, nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", n, maxFramePayload)
	}
	body := data[frameHeaderLen:]
	if uint64(n) > uint64(len(body)) {
		return 0, nil, nil, fmt.Errorf("cluster: frame declares %d bytes, %d follow", n, len(body))
	}
	return data[4], body[:n], body[n:], nil
}

// ---- coordinate slabs (placement centers, simulation points) ----

// appendPointsPayload encodes n (x, y) pairs.
func appendPointsPayload(buf []byte, pts []geom.Point) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pts)))
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
	}
	return buf
}

// decodePointsPayload decodes an (x, y) slab, validating the declared
// count against the bytes that actually arrived.
func decodePointsPayload(payload []byte) ([]geom.Point, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("cluster: point slab truncated: %d bytes", len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	body := payload[4:]
	if uint64(n)*16 != uint64(len(body)) {
		return nil, fmt.Errorf("cluster: point slab declares %d points, carries %d bytes", n, len(body))
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		off := i * 16
		pts[i] = geom.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(body[off:])),
			math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:])),
		)
	}
	return pts, nil
}

// ---- tile assignments ----

// assignment is one eval request: which tiles to evaluate, in which
// mode.
type assignment struct {
	Mode core.Mode
	IDs  []int32
}

// appendAssignPayload encodes an assignment.
func appendAssignPayload(buf []byte, a assignment) []byte {
	buf = append(buf, byte(a.Mode))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.IDs)))
	for _, id := range a.IDs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// decodeAssignPayload decodes an assignment, bounding the id count by
// the payload that actually arrived. Tile-id range checking is the
// worker's job — only it holds the tiling.
func decodeAssignPayload(payload []byte) (assignment, error) {
	var a assignment
	if len(payload) < 5 {
		return a, fmt.Errorf("cluster: assignment truncated: %d bytes", len(payload))
	}
	mode := payload[0]
	if mode > byte(core.ModeInteractive) {
		return a, fmt.Errorf("cluster: assignment mode %d unknown", mode)
	}
	a.Mode = core.Mode(mode)
	n := binary.LittleEndian.Uint32(payload[1:])
	body := payload[5:]
	if uint64(n)*4 != uint64(len(body)) {
		return a, fmt.Errorf("cluster: assignment declares %d tiles, carries %d bytes", n, len(body))
	}
	a.IDs = make([]int32, n)
	for i := range a.IDs {
		a.IDs[i] = int32(binary.LittleEndian.Uint32(body[i*4:]))
	}
	return a, nil
}

// ---- batched tile results ----

// tileRecord is one decoded tile result. vals may alias a shared decode
// slab (see decodeResultBatch); it is only valid until the slab's next
// reuse.
type tileRecord struct {
	id   int32
	vals []tensor.Stress
}

// appendResultBatchPayload encodes every assigned tile's result as one
// frameResultBatch payload: u32 count followed by the concatenated core
// tile-result records. The buffer is pre-grown to the exact encoded
// size so a worker's reused scratch stops growing once it has seen its
// largest chunk.
//
//tsvlint:allocfree
func appendResultBatchPayload(buf []byte, tl *core.Tiling, ids []int32, dst []tensor.Stress) []byte {
	need := 4
	for _, id := range ids {
		need += tl.TileResultLen(id)
	}
	buf = growBytesSpare(buf, need)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = tl.AppendTileResult(buf, id, dst)
	}
	return buf
}

// decodeResultBatch decodes a frameResultBatch payload, appending the
// records to records and their values to slab (both may be reused
// buffers; pass them with length 0). Every record's vals slice aliases
// the returned slab — the records are only valid until the caller
// reuses it. The slab is pre-grown from the payload size, so the
// appends never reallocate out from under earlier records.
//
//tsvlint:allocfree
func decodeResultBatch(payload []byte, records []tileRecord, slab []tensor.Stress) ([]tileRecord, []tensor.Stress, error) {
	if len(payload) < 4 {
		return records, slab, fmt.Errorf("cluster: result batch truncated: %d bytes", len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	body := payload[4:]
	if uint64(n)*uint64(tileResultMinLen) > uint64(len(body)) {
		return records, slab, fmt.Errorf("cluster: result batch declares %d tiles, carries %d bytes", n, len(body))
	}
	slab = growStressSpare(slab, len(body)/core.StressWireLen)
	for i := 0; i < int(n); i++ {
		id, slabOut, rest, err := core.ReadTileResultAppend(body, slab)
		if err != nil {
			return records, slab, err
		}
		records = append(records, tileRecord{id: id, vals: slabOut[len(slab):]})
		slab, body = slabOut, rest
	}
	if len(body) != 0 {
		return records, slab, fmt.Errorf("cluster: result batch carries %d trailing bytes", len(body))
	}
	return records, slab, nil
}

// tileResultMinLen is the smallest legal tile-result record (empty
// tile: u32 id + u32 count), used to bound a batch's declared tile
// count before decoding.
const tileResultMinLen = 8

// ---- job spec ----

// jobSpec is the JSON frameInit payload: everything a worker needs to
// rebuild the coordinator's evaluation state from scratch. Options are
// shipped resolved (core.Options.Resolved) so worker-side defaulting
// can never diverge; Workers is the only field a worker overrides with
// its own budget.
type jobSpec struct {
	// Job names the evaluation state on the worker; it is unique per
	// coordinator instance so restarts never collide with stale jobs.
	Job string `json:"job"`
	// Struct is the TSV cross-section; with Options it determines the
	// solved models, bit-for-bit.
	Struct material.Structure `json:"struct"`
	// Options are the resolved analyzer options.
	Options core.Options `json:"options"`
	// Mode is the job's evaluation mode.
	Mode core.Mode `json:"mode"`
	// TileCutoff is the gather radius the tiling is built with; with
	// the shipped points it reproduces the coordinator's partition.
	TileCutoff float64 `json:"tileCutoff"`
	// NumTiles and NumPoints are the expected partition shape; the
	// worker verifies its rebuilt tiling against them and refuses the
	// job on mismatch rather than return misaligned results.
	NumTiles  int `json:"numTiles"`
	NumPoints int `json:"numPoints"`
}

// validate rejects specs whose numbers could poison worker-side state.
func (s *jobSpec) validate() error {
	if s.Job == "" {
		return fmt.Errorf("cluster: job spec has no id")
	}
	if err := s.Struct.Validate(); err != nil {
		return fmt.Errorf("cluster: job %s: %w", s.Job, err)
	}
	if math.IsNaN(s.TileCutoff) || math.IsInf(s.TileCutoff, 0) || s.TileCutoff <= 0 {
		return fmt.Errorf("cluster: job %s: tile cutoff %g must be positive and finite", s.Job, s.TileCutoff)
	}
	if s.Mode < core.ModeLS || s.Mode > core.ModeInteractive {
		return fmt.Errorf("cluster: job %s: unknown mode %d", s.Job, s.Mode)
	}
	if s.NumPoints <= 0 || s.NumTiles <= 0 {
		return fmt.Errorf("cluster: job %s: empty partition (%d tiles, %d points)", s.Job, s.NumTiles, s.NumPoints)
	}
	return nil
}
