// Package wire is the binary framing layer shared by the backend and
// middle-tier TCP protocols: length-prefixed frames with a fixed
// magic+version header, little-endian payloads encoded without reflection,
// request-id multiplexing for pipelined clients (Mux), and a concurrent
// serving edge (Server) with one accept loop, per-request deadline and
// panic guard, and idle/write deadlines on each connection.
//
// It replaces the original encoding/gob protocol. gob serialized every chunk
// through reflection and forced a strictly serial request/response
// conversation per connection; a chunk here travels in the same compressed
// codec the cold tier stores (AppendChunk), and the request id in the header
// lets any number of exchanges share one connection out of order.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       3     magic "AGW"
//	3       1     version (currently 2)
//	4       1     frame type (protocol-specific)
//	5       1     flags (bit 0: transient error)
//	6       2     reserved, must be zero
//	8       8     request id
//	16      4     payload length
//	20      n     payload
//
// The reader validates magic, version and the payload length bound before
// believing anything else in the header, and reads oversized-claim payloads
// incrementally so a hostile length prefix can never force a large
// allocation ahead of the bytes actually arriving.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"aggcache/internal/obs"
)

const (
	// Version is the protocol version byte carried by every frame. Version
	// 2 ships chunks in the chunk codec instead of version 1's raw slab, so
	// either side refuses the other's frames (ErrBadVersion) rather than
	// misreading its chunk bytes.
	Version = 2

	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 20

	// DefaultMaxPayload bounds a single frame's payload (64 MiB) at every
	// product endpoint; only tests pass NewReader a tighter limit.
	DefaultMaxPayload = 64 << 20

	// readStep is the incremental payload read granularity: memory committed
	// to a frame grows at most this far ahead of bytes actually received.
	readStep = 64 << 10
)

// FlagTransient marks an error frame as retryable (the peer did not answer
// deterministically — a timeout, a recovered panic), as opposed to a
// permanent per-request rejection.
const FlagTransient uint8 = 1 << 0

var magic = [3]byte{'A', 'G', 'W'}

// Framing errors, matchable with errors.Is. Any of them means the stream
// can no longer be trusted and the connection must be dropped.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrFrameTooLarge = errors.New("wire: frame payload exceeds limit")
	ErrTruncated     = errors.New("wire: truncated frame")
	// ErrClosed is delivered to in-flight exchanges when their Mux is torn
	// down by Close; it is deliberately not transient so callers fail
	// promptly instead of retrying into a connection the owner gave up on.
	ErrClosed = errors.New("wire: connection closed")
)

// Frame is one decoded frame. Payload is owned by the receiver.
type Frame struct {
	Type    uint8
	Flags   uint8
	ID      uint64
	Payload []byte
}

// Reader decodes frames from a stream. Not safe for concurrent use.
type Reader struct {
	r   *bufio.Reader
	max int
	met obs.WireMetrics
	hdr [HeaderSize]byte
}

// NewReader wraps r with a frame decoder enforcing maxPayload (0 means
// DefaultMaxPayload).
func NewReader(r io.Reader, maxPayload int, met obs.WireMetrics) *Reader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &Reader{r: bufio.NewReaderSize(r, 32<<10), max: maxPayload, met: met}
}

// ReadFrame reads and validates one frame. io.EOF is returned untouched when
// the stream ends cleanly between frames, so callers can distinguish a
// goodbye from a mid-frame truncation (ErrTruncated).
func (r *Reader) ReadFrame() (Frame, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, fmt.Errorf("%w: partial header", ErrTruncated)
		}
		return Frame{}, err
	}
	if r.hdr[0] != magic[0] || r.hdr[1] != magic[1] || r.hdr[2] != magic[2] {
		return Frame{}, ErrBadMagic
	}
	if r.hdr[3] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, r.hdr[3], Version)
	}
	n := binary.LittleEndian.Uint32(r.hdr[16:20])
	if int64(n) > int64(r.max) {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, r.max)
	}
	fr := Frame{
		Type:  r.hdr[4],
		Flags: r.hdr[5],
		ID:    binary.LittleEndian.Uint64(r.hdr[8:16]),
	}
	if n > 0 {
		// Incremental read: commit at most readStep bytes beyond what has
		// actually arrived, so a hostile length prefix cannot make us
		// allocate the claimed size up front.
		remaining := int(n)
		buf := make([]byte, 0, min(remaining, readStep))
		for remaining > 0 {
			k := min(remaining, readStep)
			off := len(buf)
			buf = append(buf, make([]byte, k)...)
			if _, err := io.ReadFull(r.r, buf[off:]); err != nil {
				return Frame{}, fmt.Errorf("%w: partial payload", ErrTruncated)
			}
			remaining -= k
		}
		fr.Payload = buf
	}
	r.met.FramesIn.Inc()
	r.met.WireBytesIn.Add(int64(HeaderSize) + int64(n))
	return fr, nil
}

// Writer encodes frames to a stream. Not safe for concurrent use; callers
// multiplexing a connection serialize writes externally (Mux, Server).
// The header is encoded into a fixed array and sent together with the
// caller's payload in one vectored write (writev on a TCP connection), so
// the payload is never copied and the Writer retains no buffer that grows
// with the largest frame it has written.
type Writer struct {
	w   io.Writer
	met obs.WireMetrics
	hdr [HeaderSize]byte
	vec [2][]byte   // header and payload; backs out, so a frame allocates nothing
	out net.Buffers // consumed by WriteTo
}

// NewWriter wraps w with a frame encoder.
func NewWriter(w io.Writer, met obs.WireMetrics) *Writer {
	return &Writer{w: w, met: met}
}

// WriteFrame encodes and writes one frame.
func (w *Writer) WriteFrame(f Frame) error {
	copy(w.hdr[:], []byte{magic[0], magic[1], magic[2], Version, f.Type, f.Flags, 0, 0})
	binary.LittleEndian.PutUint64(w.hdr[8:16], f.ID)
	binary.LittleEndian.PutUint32(w.hdr[16:20], uint32(len(f.Payload)))
	w.vec = [2][]byte{w.hdr[:], f.Payload}
	w.out = w.vec[:]
	n, err := w.out.WriteTo(w.w)
	w.vec, w.out = [2][]byte{}, nil // keep no reference to the payload
	if err != nil {
		return err
	}
	w.met.FramesOut.Inc()
	w.met.WireBytesOut.Add(n)
	return nil
}
