package wire

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"aggcache/internal/obs"
)

// echoServer answers every frame with its own type, or with h's reply.
func echoServer(h Handler) *Server {
	if h == nil {
		h = func(_ context.Context, fr *Frame) Frame { return Frame{Type: fr.Type} }
	}
	return NewServer(h)
}

func dialMux(t *testing.T, addr string) *Mux {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	m := NewMux(conn, obs.WireMetrics{})
	t.Cleanup(func() { m.Close() })
	return m
}

// closeWithin runs Close and fails the test when it has not returned
// within d.
func closeWithin(t *testing.T, s *Server, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("Close still blocked after %v", d)
	}
}

// TestServerListensOnce: a second Listen and a Listen after Close are
// refused, the first listener keeps serving, and Close is idempotent.
func TestServerListensOnce(t *testing.T) {
	s := echoServer(nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("second Listen succeeded")
	}
	if fr, err := dialMux(t, addr).RoundTrip(context.Background(), 7, 0, nil, time.Time{}); err != nil || fr.Type != 7 {
		t.Fatalf("first listener after a refused Listen: %v %+v", err, fr)
	}
	closeWithin(t, s, time.Second)
	closeWithin(t, s, time.Second) // double Close
	if !s.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if _, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen after Close succeeded")
	}
}

// TestServerConcurrentListenClose: racing Listens and Closes never leak a
// listener or hang Close, and at most one Listen wins.
func TestServerConcurrentListenClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := echoServer(nil)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var won []string
		for i := 0; i < 4; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if addr, err := s.Listen("127.0.0.1:0"); err == nil {
					mu.Lock()
					won = append(won, addr)
					mu.Unlock()
				}
			}()
			go func() {
				defer wg.Done()
				s.Close()
			}()
		}
		wg.Wait()
		closeWithin(t, s, time.Second)
		if len(won) > 1 {
			t.Fatalf("round %d: %d Listens succeeded", round, len(won))
		}
		for _, addr := range won {
			if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				conn.Close()
				t.Fatalf("round %d: listener %s still accepting after Close", round, addr)
			}
		}
	}
}

// TestServerCloseWaitsForHandlers: Close returns only once the handlers
// in flight have finished.
func TestServerCloseWaitsForHandlers(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	var finished sync.WaitGroup
	finished.Add(2)
	s := echoServer(func(_ context.Context, fr *Frame) Frame {
		defer finished.Done()
		entered <- struct{}{}
		<-release
		return Frame{Type: fr.Type}
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	m := dialMux(t, addr)
	for i := 0; i < 2; i++ {
		go m.RoundTrip(context.Background(), 1, 0, nil, time.Time{})
	}
	<-entered
	<-entered
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with handlers in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handlers finished")
	}
	finished.Wait() // already done: Close waited for them
}

// TestServerRecoversPanicAndAppliesDeadline: a panicking handler is
// answered with a transient FrameError and counted, the connection keeps
// serving, and every handler runs under Timeouts.Request.
func TestServerRecoversPanicAndAppliesDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	panics := reg.Counter("test_request_panics_total", "")
	s := echoServer(func(ctx context.Context, fr *Frame) Frame {
		if fr.Type == 0xEE {
			panic("boom")
		}
		dl, ok := ctx.Deadline()
		if !ok || time.Until(dl) > time.Minute {
			return Frame{Type: 0}
		}
		return Frame{Type: fr.Type}
	})
	s.Timeouts.Request = time.Minute
	s.Metrics.Panics = panics
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer s.Close()
	m := dialMux(t, addr)
	fr, err := m.RoundTrip(context.Background(), 0xEE, 0, nil, time.Time{})
	if err != nil || fr.Type != FrameError || fr.Flags&FlagTransient == 0 || DecodeError(fr.Payload) != "panic serving request: boom" {
		t.Fatalf("panic reply: %v %+v", err, fr)
	}
	if panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", panics.Value())
	}
	if fr, err := m.RoundTrip(context.Background(), 3, 0, nil, time.Time{}); err != nil || fr.Type != 3 {
		t.Fatalf("request after a panic, or its deadline: %v %+v", err, fr)
	}
}
