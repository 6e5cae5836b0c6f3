package chunk

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"aggcache/internal/lattice"
)

// Sparse-payload codec: the compressed representation the cache's cold tier
// and the snapshot log store chunks in. Cell keys are sorted and distinct,
// so they delta-encode into varints (one or two bytes for the clustered
// offsets APB chunks produce, against eight in memory); fact-row counts are
// small non-negative integers and varint-encode the same way; the float64
// sums are stored as raw little-endian words (aggregated measures use the
// full mantissa, so there is nothing to squeeze without going lossy).
//
// Layout, all little-endian:
//
//	u8      flags          (bit0: counts present)
//	uvarint cells          (number of cells, n)
//	uvarint key[0], key[i]-key[i-1]-1 ...   (n strictly ascending deltas)
//	u64     val ... (n raw float64 words)
//	uvarint count ...      (n, only when bit0 set)
//
// The codec is deliberately self-contained per payload: group-by and chunk
// number travel outside it (cold-tier map key, snapshot record header), so
// the same bytes serve both consumers.

// codecHasCounts marks payloads whose cells carry fact-row counts.
const codecHasCounts = 0x01

// ErrCodec is wrapped by every decode failure, so callers can distinguish a
// corrupt payload from I/O errors with errors.Is.
var ErrCodec = errors.New("chunk: corrupt encoded payload")

var (
	errCodecShort    = wrapCodec("chunk: encoded payload truncated")
	errCodecCells    = wrapCodec("chunk: encoded cell count exceeds payload size")
	errCodecKeys     = wrapCodec("chunk: encoded keys not strictly ascending")
	errCodecVarint   = wrapCodec("chunk: malformed varint")
	errCodecCount    = wrapCodec("chunk: encoded count overflows int64")
	errCodecTrailing = wrapCodec("chunk: trailing garbage after encoded payload")
	errCodecFlags    = wrapCodec("chunk: unknown payload flags")
)

// wrapCodec makes a sentinel that errors.Is-matches ErrCodec.
func wrapCodec(msg string) error { return &codecError{msg: msg} }

type codecError struct{ msg string }

func (e *codecError) Error() string { return e.msg }
func (e *codecError) Is(target error) bool {
	return target == ErrCodec
}

// AppendPayload appends the encoded form of c's cells to dst and returns the
// extended slice. The result decodes back with DecodePayload; EncodedSize
// is its exact length, for pre-allocation.
func AppendPayload(dst []byte, c *Chunk) []byte {
	var flags byte
	if c.Counts != nil {
		flags |= codecHasCounts
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(c.Keys)))
	prev := uint64(0)
	for i, k := range c.Keys {
		if i == 0 {
			dst = binary.AppendUvarint(dst, k)
		} else {
			dst = binary.AppendUvarint(dst, k-prev-1)
		}
		prev = k
	}
	for _, v := range c.Vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	if flags&codecHasCounts != 0 {
		for _, n := range c.Counts {
			dst = binary.AppendUvarint(dst, uint64(n))
		}
	}
	return dst
}

// EncodedSize returns the exact length of AppendPayload's output for c, for
// sizing destination buffers. It walks the cells once, summing varint lengths
// without writing them.
func EncodedSize(c *Chunk) int {
	// flags + cells varint + raw vals.
	n := 1 + uvarintLen(uint64(len(c.Keys))) + 8*len(c.Vals)
	prev := uint64(0)
	for i, k := range c.Keys {
		if i == 0 {
			n += uvarintLen(k)
		} else {
			n += uvarintLen(k - prev - 1)
		}
		prev = k
	}
	for _, cnt := range c.Counts {
		n += uvarintLen(uint64(cnt))
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// uvarint decodes a canonical (minimal-length) varint from src. Overlong
// encodings — a multi-byte varint whose final byte is zero — are rejected
// (n = 0) so that every chunk has exactly one encoding; the fuzz round-trip
// and snapshot checksums rely on that.
func uvarint(src []byte) (uint64, int) {
	v, n := binary.Uvarint(src)
	if n > 1 && src[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// DecodePayload reconstructs the chunk encoded by AppendPayload, stamping it
// with the given group-by and chunk number. It is safe on arbitrary input:
// corrupt, truncated or oversized payloads return an error wrapping ErrCodec
// without panicking, and allocation is bounded by the input length (a huge
// declared cell count is rejected before any allocation). Trailing bytes
// after a well-formed payload are an error, so framing bugs surface here.
func DecodePayload(gb lattice.ID, num int32, src []byte) (*Chunk, error) {
	if len(src) < 2 {
		return nil, errCodecShort
	}
	flags := src[0]
	if flags&^codecHasCounts != 0 {
		return nil, errCodecFlags
	}
	rest := src[1:]
	cells, n := uvarint(rest)
	if n <= 0 {
		return nil, errCodecVarint
	}
	rest = rest[n:]
	// Each cell needs at least one key-delta byte and eight val bytes (plus
	// one count byte when present), so a declared count beyond len(rest)/9
	// cannot be satisfied — reject before allocating.
	minPerCell := uint64(9)
	if flags&codecHasCounts != 0 {
		minPerCell = 10
	}
	if cells > uint64(len(rest))/minPerCell+1 {
		return nil, errCodecCells
	}
	c := &Chunk{GB: gb, Num: num}
	c.Keys = make([]uint64, cells)
	c.Vals = make([]float64, cells)
	prev := uint64(0)
	for i := uint64(0); i < cells; i++ {
		d, n := uvarint(rest)
		if n <= 0 {
			return nil, errCodecShort
		}
		rest = rest[n:]
		k := d
		if i > 0 {
			k = prev + 1 + d
			if k <= prev { // overflow wraps below the previous key
				return nil, errCodecKeys
			}
		}
		c.Keys[i] = k
		prev = k
	}
	if uint64(len(rest)) < cells*8 {
		return nil, errCodecShort
	}
	for i := uint64(0); i < cells; i++ {
		c.Vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	rest = rest[cells*8:]
	if flags&codecHasCounts != 0 {
		c.Counts = make([]int64, cells)
		for i := uint64(0); i < cells; i++ {
			v, n := uvarint(rest)
			if n <= 0 {
				return nil, errCodecShort
			}
			if v > math.MaxInt64 {
				return nil, errCodecCount
			}
			rest = rest[n:]
			c.Counts[i] = int64(v)
		}
	}
	if len(rest) != 0 {
		return nil, errCodecTrailing
	}
	return c, nil
}
