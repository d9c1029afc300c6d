package cluster

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"tsvstress/internal/core"
)

// retiredResultFrame is the per-tile result frame type protocol 1 and 2
// decoded; protocol 3 retired it, so the coordinator must refuse it.
const retiredResultFrame = 5

// FuzzDecodeFrames drives the cluster wire decoder with adversarial
// byte streams: frame splitting, then the payload decoder matching each
// frame type (assignments, coordinate slabs, tile-result batches). The
// decoders must never panic or over-allocate, and every accepted
// payload must re-encode to the identical bytes — the framing is
// canonical, so decode∘encode is the identity on valid input. A retired
// type-5 result frame must fail the coordinator's result stream.
func FuzzDecodeFrames(f *testing.F) {
	// An empty error frame, a two-tile assignment, a one-point slab, a
	// retired one-point tile result, and a truncated declaration.
	f.Add([]byte("\x00\x00\x00\x00\x07"))
	f.Add(appendFrame(nil, frameAssign, appendAssignPayload(nil, assignment{Mode: core.ModeFull, IDs: []int32{0, 1}})))
	f.Add(appendFrame(nil, framePoints, []byte("\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")))
	f.Add(appendFrame(nil, retiredResultFrame, append([]byte("\x00\x00\x00\x00\x01\x00\x00\x00"), make([]byte, 24)...)))
	// A two-tile result batch (tile 0 with one point, tile 1 empty) and
	// a batch whose declared tile count exceeds its payload.
	f.Add(appendFrame(nil, frameResultBatch, append(append([]byte("\x02\x00\x00\x00"),
		append([]byte("\x00\x00\x00\x00\x01\x00\x00\x00"), make([]byte, 24)...)...),
		[]byte("\x01\x00\x00\x00\x00\x00\x00\x00")...)))
	f.Add(appendFrame(nil, frameResultBatch, []byte("\xff\xff\x00\x00")))
	f.Add([]byte("\x10\x00\x00\x00\x05abc"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for depth := 0; len(rest) > 0 && depth < 64; depth++ {
			typ, payload, next, err := DecodeFrame(rest)
			if err != nil {
				return
			}
			if len(next) >= len(rest) {
				t.Fatalf("frame made no progress: %d -> %d bytes", len(rest), len(next))
			}
			switch typ {
			case frameAssign:
				if a, err := decodeAssignPayload(payload); err == nil {
					if re := appendAssignPayload(nil, a); !bytes.Equal(re, payload) {
						t.Fatalf("assignment round trip diverged: %x != %x", re, payload)
					}
				}
			case framePlacement, framePoints:
				if pts, err := decodePointsPayload(payload); err == nil {
					if re := appendPointsPayload(nil, pts); !bytes.Equal(re, payload) {
						t.Fatalf("point slab round trip diverged")
					}
				}
			case retiredResultFrame:
				frame := rest[:len(rest)-len(next)]
				sc := &evalScratch{}
				_, err := sc.readResults(bufio.NewReader(bytes.NewReader(frame)), 1)
				if err == nil || !strings.Contains(err.Error(), "unexpected frame type 5") {
					t.Fatalf("retired result frame: err=%v, want unexpected frame type 5", err)
				}
			case frameResultBatch:
				if records, slab, err := decodeResultBatch(payload, nil, nil); err == nil {
					if len(slab) > len(payload)/core.StressWireLen {
						t.Fatalf("batch decoded %d values from %d bytes", len(slab), len(payload))
					}
					// Canonical framing: decode∘encode is the identity on
					// accepted batches.
					re := make([]byte, 0, len(payload))
					re = append(re, payload[:4]...)
					for _, rec := range records {
						re = core.AppendTileResultVals(re, rec.id, rec.vals)
					}
					if !bytes.Equal(re, payload) {
						t.Fatalf("result batch round trip diverged: %d tiles", len(records))
					}
				}
			}
			rest = next
		}
	})
}
