package mtier

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// script answers one request frame on a scripted connection.
type script func(fr wire.Frame, w *wire.Writer, conn net.Conn)

// scriptedListener serves every wire protocol from one listener: each
// request frame on every connection is handed to the current script.
func scriptedListener(t *testing.T) (addr string, set func(script)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var cur atomic.Pointer[script]
	var conns sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		conns.Wait()
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer conn.Close()
				r, w := wire.NewReader(conn, 0, obs.WireMetrics{}), wire.NewWriter(conn, obs.WireMetrics{})
				for {
					fr, err := r.ReadFrame()
					if err != nil {
						return
					}
					(*cur.Load())(fr, w, conn)
				}
			}()
		}
	}()
	return ln.Addr().String(), func(s script) { cur.Store(&s) }
}

// errorReply answers with a FrameError, the failure reply of every protocol.
func errorReply(transient bool) script {
	return func(fr wire.Frame, w *wire.Writer, _ net.Conn) {
		reply := wire.ErrorFrame("scripted failure", transient)
		reply.ID = fr.ID
		w.WriteFrame(reply)
	}
}

// verdict is how the error taxonomy classifies one failed exchange.
type verdict struct {
	transient, remote, busy, deadline, cancelled bool
}

func verdictOf(err error) verdict {
	var re *backend.RemoteError
	_, busy := wire.AsBusy(err)
	return verdict{
		transient: backend.IsTransient(err),
		remote:    errors.As(err, &re),
		busy:      busy,
		deadline:  errors.Is(err, context.DeadlineExceeded),
		cancelled: errors.Is(err, context.Canceled),
	}
}

// TestExchangeConformance runs the backend client (Remote, one attempt so
// its retry loop stays out of the way), the peer client (PeerClient) and
// the query client (Client) through the same scripted failures: all three
// are one backend.Exchange, so each failure must classify identically. Only
// Remote's exhausted retry budget additionally wraps ErrUnavailable.
func TestExchangeConformance(t *testing.T) {
	addr, set := scriptedListener(t)
	hang := make(chan struct{}) // parks scripts that never answer
	t.Cleanup(func() { close(hang) })
	received := make(chan struct{}, 1)

	// Each client makes one request of its protocol and can be closed.
	clients := []struct {
		name string
		dial func(t *testing.T) (call func(context.Context) error, closeFn func() error)
	}{
		{"remote", func(t *testing.T) (func(context.Context) error, func() error) {
			r, err := backend.DialPolicy(addr, backend.RetryPolicy{MaxAttempts: 1, IOTimeout: 2 * time.Second}, obs.RemoteMetrics{})
			if err != nil {
				t.Fatalf("DialPolicy: %v", err)
			}
			return func(ctx context.Context) error {
				_, err := r.EstimateScans(ctx, 0, []int{0})
				return err
			}, r.Close
		}},
		{"peer", func(t *testing.T) (func(context.Context) error, func() error) {
			c := NewPeerClient(addr, 0)
			return func(ctx context.Context) error {
				_, _, _, _, err := c.Get(ctx, cache.Key{})
				return err
			}, c.Close
		}},
		{"query", func(t *testing.T) (func(context.Context) error, func() error) {
			c, err := Dial(addr)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			return func(ctx context.Context) error {
				_, err := c.QueryContext(ctx, "SUM(UnitSales) BY Time:Year")
				return err
			}, c.Close
		}},
	}
	rows := []struct {
		name   string
		script script
		// budget, when set, is the caller's deadline; closeAfter closes the
		// client once the request reached the listener.
		budget     time.Duration
		closeAfter bool
		want       verdict
	}{
		{
			name: "connection dropped mid-frame",
			script: func(fr wire.Frame, _ *wire.Writer, conn net.Conn) {
				var buf bytes.Buffer
				wire.NewWriter(&buf, obs.WireMetrics{}).WriteFrame(wire.Frame{Type: 0x81, ID: fr.ID, Payload: make([]byte, 64)})
				conn.Write(buf.Bytes()[:buf.Len()/2])
				conn.Close()
			},
			want: verdict{transient: true},
		},
		{
			name: "busy",
			script: func(fr wire.Frame, w *wire.Writer, _ net.Conn) {
				reply := wire.BusyFrame(5*time.Millisecond, "scripted shed")
				reply.ID = fr.ID
				w.WriteFrame(reply)
			},
			want: verdict{transient: true, busy: true},
		},
		{name: "in-band transient error", script: errorReply(true), want: verdict{transient: true, remote: true}},
		{name: "in-band permanent error", script: errorReply(false), want: verdict{remote: true}},
		{
			name: "reply after the deadline",
			script: func(fr wire.Frame, w *wire.Writer, conn net.Conn) {
				select {
				case <-time.After(300 * time.Millisecond):
				case <-hang:
				}
				errorReply(false)(fr, w, conn)
			},
			budget: 50 * time.Millisecond,
			want:   verdict{deadline: true},
		},
		{
			name: "close with an exchange in flight",
			script: func(wire.Frame, *wire.Writer, net.Conn) {
				received <- struct{}{}
				<-hang
			},
			closeAfter: true,
			want:       verdict{},
		},
	}
	for _, row := range rows {
		for _, client := range clients {
			t.Run(row.name+"/"+client.name, func(t *testing.T) {
				set(row.script)
				call, closeFn := client.dial(t)
				defer closeFn()
				ctx := context.Background()
				if row.budget > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, row.budget)
					defer cancel()
				}
				if row.closeAfter {
					go func() {
						<-received
						closeFn()
					}()
				}
				start := time.Now()
				err := call(ctx)
				if err == nil {
					t.Fatalf("scripted failure returned no error")
				}
				if got := verdictOf(err); got != row.want {
					t.Fatalf("verdict %+v, want %+v (%v)", got, row.want, err)
				}
				// Every failure is reported promptly: none waits out the 2s
				// I/O timeout, and the query client has none to wait out.
				if elapsed := time.Since(start); elapsed > time.Second {
					t.Fatalf("failure took %v", elapsed)
				}
				if unavailable := errors.Is(err, backend.ErrUnavailable); unavailable != (client.name == "remote" && row.want.transient) {
					t.Fatalf("errors.Is(ErrUnavailable) = %v (%v)", unavailable, err)
				}
			})
		}
	}
}

// TestClientExchangeRedialsDroppedConnection: a query whose connection the
// server drops fails as a transient error, and the client's next query is
// answered over a new connection.
func TestClientExchangeRedialsDroppedConnection(t *testing.T) {
	addr, set := scriptedListener(t)
	var mu sync.Mutex
	answeredOn := map[string]bool{} // client address of each answering connection
	answer := func(fr wire.Frame, w *wire.Writer, conn net.Conn) {
		mu.Lock()
		answeredOn[conn.RemoteAddr().String()] = true
		mu.Unlock()
		w.WriteFrame(wire.Frame{Type: frameAnswer, ID: fr.ID, Payload: encodeResponse(nil, &Response{Agg: "SUM"})})
	}
	const q = "SUM(UnitSales) BY Time:Year"
	set(answer)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Query(q); err != nil {
		t.Fatalf("first query: %v", err)
	}
	set(func(_ wire.Frame, _ *wire.Writer, conn net.Conn) { conn.Close() })
	if _, err := cl.Query(q); !backend.IsTransient(err) {
		t.Fatalf("query on a dropped connection: %v, want a transient error", err)
	}
	set(answer)
	resp, err := cl.Query(q)
	if err != nil || resp.Agg != "SUM" {
		t.Fatalf("query after the drop: %+v, %v", resp, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(answeredOn) != 2 {
		t.Fatalf("answered on %d connections, want 2 (the first and its redial)", len(answeredOn))
	}
}

// stubbornBackend takes d over every fetch whatever its context says, like a
// backend that does not watch for cancellation.
type stubbornBackend struct {
	backend.Backend
	d time.Duration
}

func (b stubbornBackend) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, backend.Stats, error) {
	time.Sleep(b.d)
	return b.Backend.ComputeChunks(ctx, gb, nums)
}

// TestClientExchangeDeadlineEndsOnlyItsOwnQuery: on one client, a query
// whose context deadline passes while a slow backend computes it fails with
// context.DeadlineExceeded, and a query pipelined beside it on the same
// connection without a deadline is still answered: the query client has no
// exchange deadline that would tear the shared connection down. The backend
// ignores cancellation, so the server cannot answer the first query before
// its deadline: only the client's own context can end it.
func TestClientExchangeDeadlineEndsOnlyItsOwnQuery(t *testing.T) {
	srv, _, _ := newTestServerOver(t, func(be backend.Backend) backend.Backend {
		return stubbornBackend{be, 200 * time.Millisecond}
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	patient := make(chan error, 1)
	go func() {
		_, err := cl.Query("SUM(UnitSales) BY Time:Year")
		patient <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.QueryContext(ctx, "SUM(UnitSales) BY Product:Group"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query past its deadline: %v, want context.DeadlineExceeded", err)
	}
	if err := <-patient; err != nil {
		t.Fatalf("pipelined query without a deadline: %v", err)
	}
}
