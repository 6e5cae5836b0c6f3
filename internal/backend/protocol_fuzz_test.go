package backend

import (
	"bytes"
	"testing"
	"time"

	"aggcache/internal/chunk"
)

// FuzzBackendFrame throws arbitrary bytes at the three payload decoders of
// the backend protocol: the request the server reads, and the chunks and
// estimates replies the client reads. The invariants mirror wire.FuzzFrame:
// no panic, no chunk cell the payload cannot back (each costs at least one
// key byte and eight value bytes), and everything a decoder accepts
// re-encodes byte-identically.
func FuzzBackendFrame(f *testing.F) {
	counted := &chunk.Chunk{GB: 3, Num: 1, Keys: []uint64{0, 2, 900}, Vals: []float64{1.5, -2, 1e12}, Counts: []int64{1, 2, 3}}
	plain := &chunk.Chunk{GB: 3, Num: 4, Keys: []uint64{7}, Vals: []float64{4}}
	stats := Stats{TuplesScanned: 20, ResultCells: 4, Sim: time.Millisecond, Wall: 3 * time.Microsecond}
	f.Add(encodeRequest(nil, 3, []int{1, 4, 9}))
	f.Add(encodeRequest(nil, 0, nil))
	f.Add(encodeChunksResponse(nil, []*chunk.Chunk{counted, plain}, stats))
	f.Add(encodeChunksResponse(nil, []*chunk.Chunk{{GB: 3}}, Stats{}))
	f.Add(encodeChunksResponse(nil, nil, stats))
	f.Add(encodeEstimatesResponse(nil, []int64{5, 0, 1 << 40}))
	f.Add(append(encodeEstimatesResponse(nil, []int64{5}), 0xFF)) // trailing byte
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F}) // inflated count

	f.Fuzz(func(t *testing.T, payload []byte) {
		if gb, nums, err := decodeRequest(payload); err == nil {
			if got := encodeRequest(nil, gb, nums); !bytes.Equal(got, payload) {
				t.Fatalf("request did not round-trip: %x vs %x", got, payload)
			}
		}
		if chunks, st, err := decodeChunksResponse(payload); err == nil {
			cells := 0
			for _, c := range chunks {
				cells += c.Cells()
			}
			if 9*cells > len(payload) {
				t.Fatalf("decoded %d cells from %d payload bytes", cells, len(payload))
			}
			if got := encodeChunksResponse(nil, chunks, st); !bytes.Equal(got, payload) {
				t.Fatalf("chunks response did not round-trip: %x vs %x", got, payload)
			}
		}
		if ests, err := decodeEstimatesResponse(payload); err == nil {
			if got := encodeEstimatesResponse(nil, ests); !bytes.Equal(got, payload) {
				t.Fatalf("estimates response did not round-trip: %x vs %x", got, payload)
			}
		}
	})
}
