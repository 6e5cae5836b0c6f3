package wire

import (
	"encoding/binary"
	"math"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// This file is the payload codec: append-style encoders building onto a
// caller-owned byte slice, and a bounds-checked decoding cursor. Everything
// is little-endian and reflection-free, and every decoder validates claimed
// element counts against the bytes actually present before allocating, so a
// malformed payload yields an error, never a panic or an outsized make().

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendF64 appends a float64 as its IEEE-754 bits.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends a uint32 length prefix and the string bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendChunk appends one chunk in the product's one cell encoding, the
// chunk codec (chunk.AppendPayload) behind a fixed header: group-by u32 |
// chunk number u32 | payload length u32 | codec payload, so its length is
// 12 + chunk.EncodedSize(c).
func AppendChunk(b []byte, c *chunk.Chunk) []byte {
	b = AppendU32(b, uint32(c.GB))
	b = AppendU32(b, uint32(c.Num))
	b = AppendU32(b, 0) // payload length, patched once the payload is written
	at := len(b)
	b = chunk.AppendPayload(b, c)
	binary.LittleEndian.PutUint32(b[at-4:], uint32(len(b)-at))
	return b
}

// Dec is a decoding cursor over one payload. The first bounds violation
// latches the error; every later read returns the zero value, so decoders
// can run straight-line and check Err once at the end.
type Dec struct {
	b   []byte
	off int
	bad bool
}

// NewDec returns a cursor over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err reports whether the payload was malformed (truncated or
// inconsistent).
func (d *Dec) Err() error {
	if d.bad {
		return ErrTruncated
	}
	return nil
}

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) fail() { d.bad = true }

// take returns the next n bytes, or nil after latching the error.
func (d *Dec) take(n int) []byte {
	if d.bad || n < 0 || n > len(d.b)-d.off {
		d.fail()
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string. The length is validated against
// the remaining payload before the bytes are copied.
func (d *Dec) String() string {
	n := d.U32()
	s := d.take(int(n))
	if s == nil {
		return ""
	}
	return string(s)
}

// Chunk decodes one chunk written by AppendChunk into freshly allocated
// arrays (the caller — a cache — may retain them indefinitely, so they are
// never pooled; see DESIGN.md §9 on chunk ownership). The codec rejects
// keys that are not strictly ascending, so every chunk that crosses the
// wire is one Chunk.find can search. Returns nil on malformed input.
func (d *Dec) Chunk() *chunk.Chunk {
	gb := d.U32()
	num := d.U32()
	// A short read leaves take's result nil, which the codec rejects too.
	c, err := chunk.DecodePayload(lattice.ID(gb), int32(num), d.take(int(d.U32())))
	if err != nil {
		d.fail()
		return nil
	}
	return c
}
