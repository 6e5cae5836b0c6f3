package wire

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/obs"
)

// Mux multiplexes request/response exchanges over one connection: callers
// issue RoundTrip concurrently, writes are serialized under a short mutex,
// and a single reader goroutine dispatches response frames to waiters by
// request id — so N in-flight requests cost one connection and responses
// may complete in any order.
//
// A Mux fails as a unit: the first wire-level error (or Close) tears the
// connection down and delivers the error to every in-flight exchange
// immediately, so no caller is ever left waiting on a dead stream.
type Mux struct {
	conn net.Conn
	met  obs.WireMetrics

	wmu sync.Mutex
	w   *Writer

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan muxResult
	err     error // first terminal error; nil while healthy
}

type muxResult struct {
	fr  Frame
	err error
}

// NewMux starts multiplexing conn. maxPayload bounds response frames
// (0 means DefaultMaxPayload).
func NewMux(conn net.Conn, maxPayload int, met obs.WireMetrics) *Mux {
	m := &Mux{
		conn:    conn,
		met:     met,
		w:       NewWriter(conn, met),
		pending: make(map[uint64]chan muxResult),
	}
	r := NewReader(conn, maxPayload, met)
	go m.readLoop(r)
	return m
}

// readLoop is the single reader: it owns the receive side of the connection
// and hands each response to the caller registered under its id. Responses
// for ids nobody waits on (a caller that gave up on its context) are
// dropped on the floor — the exchange is over either way.
func (m *Mux) readLoop(r *Reader) {
	for {
		fr, err := r.ReadFrame()
		if err != nil {
			m.fail(fmt.Errorf("wire: receive: %w", err))
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[fr.ID]
		if ok {
			delete(m.pending, fr.ID)
		}
		m.mu.Unlock()
		if ok {
			ch <- muxResult{fr: fr}
			m.met.InFlight.Add(-1)
		}
	}
}

// fail latches the first terminal error, closes the connection (unblocking
// the reader and any stuck write), and delivers the error to every pending
// exchange.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	} else {
		err = m.err
	}
	pend := m.pending
	m.pending = make(map[uint64]chan muxResult)
	m.mu.Unlock()
	m.conn.Close()
	for _, ch := range pend {
		ch <- muxResult{err: err}
		m.met.InFlight.Add(-1)
	}
}

// Close tears the connection down promptly: in-flight exchanges fail with
// ErrClosed instead of waiting out their I/O deadlines.
func (m *Mux) Close() error {
	m.fail(ErrClosed)
	return nil
}

// Healthy reports whether the connection is still usable.
func (m *Mux) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err == nil
}

// forget abandons a pending exchange (the caller's context ended). It
// reports whether the entry was still pending; if not, a result was already
// delivered to the caller's channel.
func (m *Mux) forget(id uint64) bool {
	m.mu.Lock()
	_, ok := m.pending[id]
	if ok {
		delete(m.pending, id)
	}
	m.mu.Unlock()
	if ok {
		m.met.InFlight.Add(-1)
	}
	return ok
}

// RoundTrip performs one exchange: assign an id, write the request frame,
// and wait for the matching response. deadline (zero means none) bounds the
// whole exchange; when it expires the connection is torn down — a peer that
// stopped answering cannot be trusted with the stream's framing — and the
// timeout is delivered to every other in-flight exchange as well. Context
// cancellation, by contrast, abandons only this exchange and leaves the
// connection healthy for the others.
func (m *Mux) RoundTrip(ctx context.Context, typ, flags uint8, payload []byte, deadline time.Time) (Frame, error) {
	id := m.nextID.Add(1)
	ch := make(chan muxResult, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return Frame{}, err
	}
	m.pending[id] = ch
	m.mu.Unlock()
	m.met.InFlight.Add(1)

	m.wmu.Lock()
	m.conn.SetWriteDeadline(deadline)
	err := m.w.WriteFrame(Frame{Type: typ, Flags: flags, ID: id, Payload: payload})
	m.wmu.Unlock()
	if err != nil {
		// A failed write leaves the stream position unknown; the connection
		// is done for everyone.
		m.forget(id)
		m.fail(fmt.Errorf("wire: send: %w", err))
		return Frame{}, fmt.Errorf("wire: send: %w", err)
	}

	var timeC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeC = t.C
	}
	select {
	case res := <-ch:
		return res.fr, res.err
	case <-ctx.Done():
		if m.forget(id) {
			return Frame{}, ctx.Err()
		}
		// The response raced the cancellation; it is buffered, take it.
		res := <-ch
		return res.fr, res.err
	case <-timeC:
		m.fail(fmt.Errorf("wire: exchange timed out: %w", os.ErrDeadlineExceeded))
		// fail delivered to our channel unless the response raced in; either
		// way exactly one result is buffered.
		res := <-ch
		return res.fr, res.err
	}
}
