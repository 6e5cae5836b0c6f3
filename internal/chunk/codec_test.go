package chunk

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randChunk builds a chunk with n sorted distinct keys, random values and —
// when withCounts — per-cell counts, spread over a sparse key space.
func randChunk(rng *rand.Rand, n int, withCounts bool) *Chunk {
	c := &Chunk{GB: 3, Num: 7}
	key := uint64(0)
	for i := 0; i < n; i++ {
		key += 1 + uint64(rng.Intn(1<<uint(rng.Intn(20))))
		c.Keys = append(c.Keys, key)
		c.Vals = append(c.Vals, rng.NormFloat64()*1e6)
	}
	if withCounts {
		for range c.Keys {
			c.Counts = append(c.Counts, int64(rng.Intn(1_000_000)))
		}
	}
	return c
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		orig := randChunk(rng, rng.Intn(300), trial%2 == 0)
		enc := AppendPayload(nil, orig)
		if len(enc) != EncodedSize(orig) {
			t.Fatalf("trial %d: encoded %d bytes, EncodedSize says %d", trial, len(enc), EncodedSize(orig))
		}
		dec, err := DecodePayload(orig.GB, orig.Num, enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if dec.GB != orig.GB || dec.Num != orig.Num {
			t.Fatalf("trial %d: identity (%d,%d) != (%d,%d)", trial, dec.GB, dec.Num, orig.GB, orig.Num)
		}
		if len(dec.Keys) != len(orig.Keys) {
			t.Fatalf("trial %d: %d cells, want %d", trial, len(dec.Keys), len(orig.Keys))
		}
		for i := range orig.Keys {
			if dec.Keys[i] != orig.Keys[i] {
				t.Fatalf("trial %d: key[%d] = %d, want %d", trial, i, dec.Keys[i], orig.Keys[i])
			}
			if math.Float64bits(dec.Vals[i]) != math.Float64bits(orig.Vals[i]) {
				t.Fatalf("trial %d: val[%d] = %v, want %v", trial, i, dec.Vals[i], orig.Vals[i])
			}
		}
		if (dec.Counts == nil) != (orig.Counts == nil) && len(orig.Keys) > 0 {
			t.Fatalf("trial %d: counts presence lost", trial)
		}
		for i := range orig.Counts {
			if dec.Counts[i] != orig.Counts[i] {
				t.Fatalf("trial %d: count[%d] = %d, want %d", trial, i, dec.Counts[i], orig.Counts[i])
			}
		}
	}
}

// TestCodecSpecialValues pins NaN/Inf/negative-zero round-tripping (bit-exact
// floats) and the empty chunk.
func TestCodecSpecialValues(t *testing.T) {
	orig := &Chunk{GB: 1, Num: 2,
		Keys: []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64},
		Vals: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)},
	}
	dec, err := DecodePayload(1, 2, AppendPayload(nil, orig))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range orig.Vals {
		if math.Float64bits(dec.Vals[i]) != math.Float64bits(orig.Vals[i]) {
			t.Fatalf("val[%d] bits differ", i)
		}
		if dec.Keys[i] != orig.Keys[i] {
			t.Fatalf("key[%d] = %d, want %d", i, dec.Keys[i], orig.Keys[i])
		}
	}

	empty, err := DecodePayload(0, 0, AppendPayload(nil, &Chunk{}))
	if err != nil {
		t.Fatalf("empty chunk: %v", err)
	}
	if len(empty.Keys) != 0 {
		t.Fatalf("empty chunk decoded %d cells", len(empty.Keys))
	}
}

// TestCodecCompresses pins the space win the cold tier is built on: a dense
// ascending key run must encode well under the 24 B/cell raw layout.
func TestCodecCompresses(t *testing.T) {
	c := &Chunk{GB: 0, Num: 0}
	for i := 0; i < 1000; i++ {
		c.Keys = append(c.Keys, uint64(i))
		c.Vals = append(c.Vals, float64(i))
	}
	enc := AppendPayload(nil, c)
	raw := len(c.Keys) * CellBytes
	if len(enc) >= raw/2 {
		t.Fatalf("dense chunk encoded to %d bytes, want < half of raw %d", len(enc), raw)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	orig := randChunk(rng, 100, true)
	enc := AppendPayload(nil, orig)

	// Truncation at every prefix length must error, never panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodePayload(orig.GB, orig.Num, enc[:cut]); err == nil {
			// A prefix can only be valid if it is a complete encoding, which
			// a strict trailing-bytes check rules out for proper prefixes.
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		} else if !errors.Is(err, ErrCodec) {
			t.Fatalf("truncation to %d: error %v does not wrap ErrCodec", cut, err)
		}
	}

	// Trailing garbage is rejected.
	if _, err := DecodePayload(orig.GB, orig.Num, append(bytes.Clone(enc), 0xFF)); err == nil {
		t.Fatalf("trailing byte accepted")
	}

	// Unknown flag bits are rejected.
	bad := bytes.Clone(enc)
	bad[0] |= 0x80
	if _, err := DecodePayload(orig.GB, orig.Num, bad); err == nil {
		t.Fatalf("unknown flag bit accepted")
	}

	// An absurd cell count must be rejected before allocation.
	if _, err := DecodePayload(0, 0, []byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}); err == nil {
		t.Fatalf("giant cell count accepted")
	}
}

// FuzzChunkCodec throws arbitrary bytes at the decoder (no panics, no
// over-allocation) and round-trips whatever decodes successfully.
func FuzzChunkCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	f.Add([]byte{})
	f.Add(AppendPayload(nil, randChunk(rng, 40, false)))
	f.Add(AppendPayload(nil, randChunk(rng, 40, true)))
	f.Add([]byte{0x01, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodePayload(2, 4, data)
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("decode error %v does not wrap ErrCodec", err)
			}
			return
		}
		// Anything that decodes must re-encode to the identical bytes — the
		// codec has exactly one encoding per chunk.
		enc := AppendPayload(nil, c)
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode mismatch: %d bytes in, %d out", len(data), len(enc))
		}
		if n := EncodedSize(c); n != len(data) {
			t.Fatalf("EncodedSize %d for a %d-byte encoding", n, len(data))
		}
	})
}
