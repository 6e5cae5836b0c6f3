package backend

import (
	"fmt"
	"slices"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/wire"
)

// Frame types of the backend wire protocol (see DESIGN.md §11). A request
// names one group-by and a batch of chunk numbers; whether the server
// computes them or only estimates their scan cost is the frame type, so a
// Phase-2 partition with N missing chunks — or a Phase-1b batch of N cost
// probes — is one round trip either way.
const (
	frameCompute   uint8 = 0x01 // request: compute the listed chunks
	frameEstimate  uint8 = 0x02 // request: estimate per-chunk scan cost
	frameChunks    uint8 = 0x81 // response to frameCompute
	frameEstimates uint8 = 0x82 // response to frameEstimate
	frameError     uint8 = 0xE0 // response: in-band error (FlagTransient = retryable)
)

// encodeRequest appends a compute/estimate request payload:
// gb u32 | n u32 | nums u32×n.
func encodeRequest(b []byte, gb lattice.ID, nums []int) []byte {
	b = wire.AppendU32(b, uint32(gb))
	b = wire.AppendU32(b, uint32(len(nums)))
	for _, n := range nums {
		b = wire.AppendU32(b, uint32(n))
	}
	return b
}

// decodeRequest parses a request payload.
func decodeRequest(p []byte) (lattice.ID, []int, error) {
	d := wire.NewDec(p)
	gb := lattice.ID(d.U32())
	n := int(d.U32())
	if err := d.Err(); err != nil || n > d.Remaining()/4 {
		return 0, nil, fmt.Errorf("backend: malformed request payload")
	}
	nums := make([]int, n)
	for i := range nums {
		nums[i] = int(int32(d.U32()))
	}
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("backend: malformed request payload")
	}
	return gb, nums, nil
}

// encodeChunksResponse appends a frameChunks payload:
// stats (4×u64) | nchunks u32 | chunk slabs. The whole payload's size is known
// up front, so b grows at most once.
func encodeChunksResponse(b []byte, chunks []*chunk.Chunk, stats Stats) []byte {
	size := 4*8 + 4
	for _, c := range chunks {
		size += wire.ChunkWireSize(c)
	}
	b = slices.Grow(b, size)
	b = wire.AppendU64(b, uint64(stats.TuplesScanned))
	b = wire.AppendU64(b, uint64(stats.ResultCells))
	b = wire.AppendU64(b, uint64(stats.Sim))
	b = wire.AppendU64(b, uint64(stats.Wall))
	b = wire.AppendU32(b, uint32(len(chunks)))
	for _, c := range chunks {
		b = wire.AppendChunk(b, c)
	}
	return b
}

// decodeChunksResponse parses a frameChunks payload, which must hold exactly
// the chunk slabs it announces.
func decodeChunksResponse(p []byte) ([]*chunk.Chunk, Stats, error) {
	d := wire.NewDec(p)
	var stats Stats
	stats.TuplesScanned = int64(d.U64())
	stats.ResultCells = int64(d.U64())
	stats.Sim = time.Duration(d.U64())
	stats.Wall = time.Duration(d.U64())
	n := int(d.U32())
	if err := d.Err(); err != nil || n > d.Remaining()/13 {
		return nil, Stats{}, fmt.Errorf("backend: malformed chunks response")
	}
	chunks := make([]*chunk.Chunk, 0, n)
	for i := 0; i < n; i++ {
		c := d.Chunk()
		if c == nil {
			return nil, Stats{}, fmt.Errorf("backend: malformed chunks response")
		}
		chunks = append(chunks, c)
	}
	if d.Remaining() != 0 {
		return nil, Stats{}, fmt.Errorf("backend: malformed chunks response: %d trailing bytes", d.Remaining())
	}
	return chunks, stats, nil
}

// encodeEstimatesResponse appends a frameEstimates payload: n u32 | u64×n.
func encodeEstimatesResponse(b []byte, ests []int64) []byte {
	b = wire.AppendU32(b, uint32(len(ests)))
	for _, e := range ests {
		b = wire.AppendU64(b, uint64(e))
	}
	return b
}

// decodeEstimatesResponse parses a frameEstimates payload.
func decodeEstimatesResponse(p []byte) ([]int64, error) {
	d := wire.NewDec(p)
	n := int(d.U32())
	if err := d.Err(); err != nil || n > d.Remaining()/8 {
		return nil, fmt.Errorf("backend: malformed estimates response")
	}
	ests := make([]int64, n)
	for i := range ests {
		ests[i] = int64(d.U64())
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("backend: malformed estimates response")
	}
	return ests, nil
}

// errorFrame builds an in-band error response. transient marks the failure
// as retryable per the PR-3 taxonomy: the engine did not answer (timeout,
// recovered panic, outage behind this server), as opposed to a
// deterministic per-request rejection.
func errorFrame(msg string, transient bool) wire.Frame {
	var flags uint8
	if transient {
		flags |= wire.FlagTransient
	}
	return wire.Frame{Type: frameError, Flags: flags, Payload: wire.AppendString(nil, msg)}
}

// decodeErrorFrame extracts the message of a frameError payload.
func decodeErrorFrame(p []byte) string {
	d := wire.NewDec(p)
	msg := d.String()
	if d.Err() != nil {
		return "unreadable error payload"
	}
	return msg
}
