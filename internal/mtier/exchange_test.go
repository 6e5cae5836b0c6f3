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
	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// backendFrameError is the backend protocol's in-band error frame type
// (backend.frameError); the peer protocol's is framePeerErr.
const backendFrameError uint8 = 0xE0

// script answers one request frame on a scripted connection.
type script func(fr wire.Frame, w *wire.Writer, conn net.Conn)

// scriptedListener serves both wire protocols from one listener: every
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

// errorReply answers with the request's protocol's in-band error frame.
func errorReply(transient bool) script {
	return func(fr wire.Frame, w *wire.Writer, _ net.Conn) {
		typ := backendFrameError
		if fr.Type == framePeerGet {
			typ = framePeerErr
		}
		reply := wire.Frame{Type: typ, ID: fr.ID, Payload: wire.AppendString(nil, "scripted failure")}
		if transient {
			reply.Flags = wire.FlagTransient
		}
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
// its retry loop stays out of the way) and the peer client (PeerClient)
// through the same scripted failures: both are one backend.Exchange, so
// each failure must classify identically. Only Remote's exhausted retry
// budget additionally wraps ErrUnavailable.
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
			r, err := backend.DialPolicy(addr, backend.RetryPolicy{MaxAttempts: 1, IOTimeout: 2 * time.Second}, 0, obs.RemoteMetrics{})
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
				// I/O timeout.
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
