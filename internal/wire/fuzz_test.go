package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// FuzzFrame feeds arbitrary bytes to the frame reader and then to the chunk
// payload decoder. The invariants under fuzzing: no panic, no runaway
// allocation (the 1 MiB payload cap plus the incremental read make a hostile
// length prefix harmless), and anything the reader does accept round-trips
// byte-identically through the writer.
func FuzzFrame(f *testing.F) {
	// Seed corpus: valid frames of each interesting shape, plus targeted
	// corruptions the unit tests also cover.
	add := func(fr Frame) {
		var buf bytes.Buffer
		w := NewWriter(&buf, obs.WireMetrics{})
		if err := w.WriteFrame(fr); err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		f.Add(buf.Bytes())
	}
	add(Frame{Type: 1, ID: 1})
	add(Frame{Type: 0x81, Flags: FlagTransient, ID: 7, Payload: []byte("payload")})
	add(Frame{Type: 0xE0, ID: 1<<63 + 5, Payload: bytes.Repeat([]byte{9}, 3000)})
	for _, transient := range []bool{true, false} {
		fr := ErrorFrame("scripted failure", transient)
		fr.ID = 9
		add(fr)
	}
	f.Add([]byte("AGW"))                                  // truncated header
	f.Add(bytes.Repeat([]byte{0xFF}, 64))                 // bad magic
	f.Add(append([]byte("AGW\x01"), make([]byte, 16)...)) // the old version
	huge := append([]byte{'A', 'G', 'W', Version, 1, 0, 0, 0}, make([]byte, 8)...)
	huge = binary.LittleEndian.AppendUint32(huge, 0xFFFFFFF0) // oversized claim
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), 1<<20, obs.WireMetrics{})
		for {
			fr, err := r.ReadFrame()
			if err != nil {
				return
			}
			if len(fr.Payload) > len(data) {
				t.Fatalf("decoded payload of %d bytes from %d input bytes", len(fr.Payload), len(data))
			}
			// An accepted frame must survive a write/read round trip intact.
			var buf bytes.Buffer
			if err := NewWriter(&buf, obs.WireMetrics{}).WriteFrame(fr); err != nil {
				t.Fatalf("re-encode accepted frame: %v", err)
			}
			got, err := NewReader(&buf, 1<<20, obs.WireMetrics{}).ReadFrame()
			if err != nil {
				t.Fatalf("re-decode accepted frame: %v", err)
			}
			if got.Type != fr.Type || got.Flags != fr.Flags || got.ID != fr.ID || !bytes.Equal(got.Payload, fr.Payload) {
				t.Fatalf("frame did not round-trip: %+v vs %+v", got, fr)
			}
		}
	})
}

// FuzzChunkDecode throws arbitrary bytes at the chunk decoder (the header
// plus the chunk codec): it must either return a chunk the bytes it consumed
// could back, with strictly ascending keys, that re-encodes to exactly those
// bytes, or cleanly latch an error — never panic, never allocate arrays
// larger than the payload could possibly back.
func FuzzChunkDecode(f *testing.F) {
	f.Add(AppendChunk(nil, testChunk(3, true)))
	f.Add(AppendChunk(nil, testChunk(1, false)))
	f.Add(AppendChunk(nil, testChunk(0, false)))
	f.Add([]byte{})
	bad := AppendChunk(nil, testChunk(2, true))
	binary.LittleEndian.PutUint32(bad[8:12], 1<<31-1) // inflated payload length
	f.Add(bad)
	bad = AppendChunk(nil, testChunk(2, true))
	bad[13] = 0x7F // inflated cell count inside the codec payload
	f.Add(bad)
	unsorted := testChunk(3, false)
	unsorted.Keys[0], unsorted.Keys[2] = unsorted.Keys[2], unsorted.Keys[0]
	f.Add(AppendChunk(nil, unsorted))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		c := d.Chunk()
		if c == nil {
			if d.Err() == nil {
				t.Fatalf("nil chunk without a latched error")
			}
			return
		}
		if len(c.Keys) != len(c.Vals) {
			t.Fatalf("inconsistent arrays: %d keys, %d vals", len(c.Keys), len(c.Vals))
		}
		if c.Counts != nil && len(c.Counts) != len(c.Keys) {
			t.Fatalf("inconsistent counts: %d vs %d", len(c.Counts), len(c.Keys))
		}
		// A cell costs at least one key byte and eight value bytes.
		if 9*len(c.Keys) > len(data) {
			t.Fatalf("decoded %d cells from %d payload bytes", len(c.Keys), len(data))
		}
		for i := 1; i < len(c.Keys); i++ {
			if c.Keys[i] <= c.Keys[i-1] {
				t.Fatalf("keys not strictly ascending at %d: %v", i, c.Keys)
			}
		}
		used := data[:len(data)-d.Remaining()]
		if got := AppendChunk(nil, c); !bytes.Equal(got, used) {
			t.Fatalf("chunk did not round-trip: %x vs %x", got, used)
		}
	})
}

func testChunk(cells int, counts bool) *chunk.Chunk {
	c := &chunk.Chunk{GB: 2, Num: 4}
	for i := 0; i < cells; i++ {
		c.Keys = append(c.Keys, uint64(i*i+1))
		c.Vals = append(c.Vals, float64(i)*1.5)
		if counts {
			c.Counts = append(c.Counts, int64(i+1))
		}
	}
	return c
}
