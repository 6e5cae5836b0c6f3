package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, obs.WireMetrics{})
	frames := []Frame{
		{Type: 1, Flags: FlagTransient, ID: 42, Payload: []byte("hello")},
		{Type: 0xE0, ID: 0},
		{Type: 7, ID: math.MaxUint64, Payload: bytes.Repeat([]byte{0xAB}, 200_000)},
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	r := NewReader(&buf, 0, obs.WireMetrics{})
	for i, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.ID != want.ID {
			t.Fatalf("frame %d header = %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d payload mismatch (%d vs %d bytes)", i, len(got.Payload), len(want.Payload))
		}
	}
	if _, err := r.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("trailing read = %v, want io.EOF", err)
	}
}

// TestWriterRetainsNoFrameBuffer: after a large frame is written, the
// Writer holds on to no copy of it, so a long-lived connection does not keep
// a buffer the size of the largest frame it ever sent.
func TestWriterRetainsNoFrameBuffer(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	w := NewWriter(io.Discard, obs.WireMetrics{})
	writeBig := func() {
		if err := w.WriteFrame(Frame{Type: 1, Payload: make([]byte, 4<<20)}); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	writeBig()
	// The Writer's own fields hold no slice after the write: nothing else in
	// the process can disturb this check.
	if cap(w.vec[0]) != 0 || cap(w.vec[1]) != 0 || w.out != nil {
		t.Fatalf("writer keeps slices after WriteFrame: vec caps %d/%d, out %d buffers",
			cap(w.vec[0]), cap(w.vec[1]), len(w.out))
	}
	// And the heap agrees, with a margin for other goroutines in the test
	// binary: a retained copy would be the whole 4 MiB.
	after := heap()
	runtime.KeepAlive(w)
	if after > before && after-before > 1<<20 {
		t.Fatalf("writer retains %d bytes after a 4 MiB frame, want well under 1 MiB", after-before)
	}
	small := Frame{Type: 1, ID: 7, Payload: []byte("payload")}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := w.WriteFrame(small); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("WriteFrame allocates %v times per frame, want 0", allocs)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader(bytes.Repeat([]byte{0xFF}, HeaderSize)), 0, obs.WireMetrics{})
	if _, err := r.ReadFrame(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, obs.WireMetrics{})
	w.WriteFrame(Frame{Type: 1, ID: 1})
	b := buf.Bytes()
	b[3] = 99 // version byte
	r := NewReader(bytes.NewReader(b), 0, obs.WireMetrics{})
	if _, err := r.ReadFrame(); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestReaderRejectsOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, obs.WireMetrics{})
	w.WriteFrame(Frame{Type: 1, ID: 1})
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[16:20], 0xFFFF_FFF0)
	r := NewReader(bytes.NewReader(b), 1<<20, obs.WireMetrics{})
	if _, err := r.ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestReaderTruncatedBigClaimDoesNotOverAllocate: a frame claiming a large
// (but within-limit) payload, with almost no bytes behind it, must fail
// without allocating the claimed size.
func TestReaderTruncatedBigClaimDoesNotOverAllocate(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(Version)
	buf.Write([]byte{1, 0, 0, 0})
	var id [8]byte
	buf.Write(id[:])
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], 32<<20) // claims 32 MiB
	buf.Write(n[:])
	buf.Write([]byte("only a few bytes follow"))

	r := NewReader(bytes.NewReader(buf.Bytes()), 64<<20, obs.WireMetrics{})
	before := allocatedBytes()
	if _, err := r.ReadFrame(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// TotalAlloc is monotonic, so this bounds every byte allocated while the
	// reader handled the hostile claim — a naive make(32MiB) would trip it.
	if grew := allocatedBytes() - before; grew > 4<<20 {
		t.Fatalf("truncated 32MiB claim committed %d bytes", grew)
	}
}

func allocatedBytes() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

func TestDecChunkRoundTrip(t *testing.T) {
	c := &chunk.Chunk{
		GB:     lattice.ID(5),
		Num:    9,
		Keys:   []uint64{1, 7, 42},
		Vals:   []float64{1.5, -2.25, 1e12},
		Counts: []int64{1, 2, 3},
	}
	b := AppendChunk(nil, c)
	if want := 12 + chunk.EncodedSize(c); len(b) != want {
		t.Fatalf("encoded %d bytes, want 12 + chunk.EncodedSize = %d", len(b), want)
	}
	d := NewDec(b)
	got := d.Chunk()
	if got == nil || d.Err() != nil {
		t.Fatalf("decode failed: %v", d.Err())
	}
	if got.GB != c.GB || got.Num != c.Num {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range c.Keys {
		if got.Keys[i] != c.Keys[i] || got.Vals[i] != c.Vals[i] || got.Counts[i] != c.Counts[i] {
			t.Fatalf("cell %d mismatch", i)
		}
	}
	// No counts → nil Counts back.
	c2 := &chunk.Chunk{GB: 1, Num: 0, Keys: []uint64{3}, Vals: []float64{4}}
	got2 := NewDec(AppendChunk(nil, c2)).Chunk()
	if got2 == nil || got2.Counts != nil {
		t.Fatalf("countless chunk decoded wrong: %+v", got2)
	}
}

func TestDecChunkRejectsInflatedCellCount(t *testing.T) {
	c := &chunk.Chunk{GB: 1, Num: 0, Keys: []uint64{3}, Vals: []float64{4}}
	b := AppendChunk(nil, c)
	binary.LittleEndian.PutUint32(b[8:12], 1<<30) // payload length field
	d := NewDec(b)
	if got := d.Chunk(); got != nil || d.Err() == nil {
		t.Fatalf("inflated payload length decoded: %+v", got)
	}
	// The codec's own cell count, inflated inside a well-framed payload.
	b = AppendChunk(nil, c)
	b[13] = 0x7F // cells varint, after the header and the flags byte
	d = NewDec(b)
	if got := d.Chunk(); got != nil || d.Err() == nil {
		t.Fatalf("inflated cell count decoded: %+v", got)
	}
}

// TestMuxPipelinesOutOfOrder drives the mux against a hand-rolled server
// that answers requests in reverse arrival order, proving responses are
// matched by id, not position.
func TestMuxPipelinesOutOfOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	const k = 8
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := NewReader(conn, 0, obs.WireMetrics{})
		w := NewWriter(conn, obs.WireMetrics{})
		frames := make([]Frame, 0, k)
		for i := 0; i < k; i++ {
			fr, err := r.ReadFrame()
			if err != nil {
				return
			}
			frames = append(frames, fr)
		}
		for i := len(frames) - 1; i >= 0; i-- {
			fr := frames[i]
			w.WriteFrame(Frame{Type: fr.Type + 1, ID: fr.ID, Payload: fr.Payload})
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	m := NewMux(conn, obs.WireMetrics{})
	defer m.Close()
	var wg sync.WaitGroup
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte{byte(i)}
			fr, err := m.RoundTrip(context.Background(), 1, 0, payload, time.Now().Add(5*time.Second))
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(fr.Payload, payload) {
				errs <- errors.New("response payload does not match request")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("round trip: %v", err)
	}
}

// TestMuxCloseFailsInFlight: Close must fail a stuck exchange promptly with
// ErrClosed instead of waiting out its deadline.
func TestMuxCloseFailsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, _ := ln.Accept()
		if conn != nil {
			defer conn.Close()
			time.Sleep(2 * time.Second) // never answers
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	m := NewMux(conn, obs.WireMetrics{})
	done := make(chan error, 1)
	go func() {
		_, err := m.RoundTrip(context.Background(), 1, 0, nil, time.Now().Add(time.Minute))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	m.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight err = %v, want ErrClosed", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("in-flight exchange took %v to fail after Close", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("in-flight exchange still stuck after Close")
	}
}

// TestServeConnCountsIdleClose: a connection reaped by the idle deadline
// counts as an idle close, not a wire error.
func TestServeConnCountsIdleClose(t *testing.T) {
	reg := obs.NewRegistry()
	wireErrs := reg.Counter("test_wire_errors_total", "")
	idles := reg.Counter("test_idle_closes_total", "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serveConn(conn, ConnOptions{
			Timeouts: Timeouts{Read: 50 * time.Millisecond},
			Metrics:  obs.WireMetrics{WireErrors: wireErrs, IdleCloses: idles},
		}, func(fr *Frame) Frame { return Frame{Type: fr.Type} })
		close(served)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatalf("idle connection was not reaped")
	}
	if idles.Value() != 1 || wireErrs.Value() != 0 {
		t.Fatalf("idle close counted wrong: idles=%d wireErrs=%d", idles.Value(), wireErrs.Value())
	}
}
