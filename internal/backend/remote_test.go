package backend

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// quickPolicy keeps resilience tests fast: small backoffs, few attempts.
func quickPolicy(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		DialTimeout: time.Second,
		IOTimeout:   2 * time.Second,
		Seed:        7,
	}
}

// TestRemoteEstimateScan checks the estimate op over the wire: per-chunk
// estimates come back in request order equal to the engine's own, and an
// out-of-range group-by or chunk is an error on the client too.
func TestRemoteEstimateScan(t *testing.T) {
	e, tab := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	remote, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()
	ctx := context.Background()
	g := e.Grid()
	lat := g.Lattice()
	ests, err := remote.EstimateScans(ctx, lat.Top(), []int{0})
	if err != nil || len(ests) != 1 || ests[0] != int64(tab.Len()) {
		t.Fatalf("remote top estimate %v, %v; want [%d]", ests, err, tab.Len())
	}
	nums := allChunkNums(g, lat.Base())
	for i, j := 0, len(nums)-1; i < j; i, j = i+1, j-1 {
		nums[i], nums[j] = nums[j], nums[i] // request order, not chunk order
	}
	want, err := e.EstimateScans(ctx, lat.Base(), nums)
	if err != nil {
		t.Fatalf("local EstimateScans: %v", err)
	}
	got, err := remote.EstimateScans(ctx, lat.Base(), nums)
	if err != nil {
		t.Fatalf("remote EstimateScans: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("remote returned %d estimates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimate %d (chunk %d): remote %d, local %d", i, nums[i], got[i], want[i])
		}
	}
	if _, err := remote.EstimateScans(ctx, 9999, []int{0}); err == nil {
		t.Fatalf("remote out-of-range group-by estimate: expected error")
	}
	if _, err := remote.EstimateScans(ctx, lat.Top(), []int{7}); err == nil {
		t.Fatalf("remote out-of-range chunk estimate: expected error")
	}
}

func TestRemoteRedialsAfterServerRestart(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	remote, err := DialPolicy(addr, quickPolicy(8), 0, obs.RemoteMetrics{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()

	lat := e.Grid().Lattice()
	if _, _, err := remote.ComputeChunks(context.Background(), lat.Top(), []int{0}); err != nil {
		t.Fatalf("first request: %v", err)
	}

	// Kill the server out from under the client, restart on the same
	// address, and require the next request to heal transparently.
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	srv2 := NewServer(e)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	defer srv2.Close()

	got, _, err := remote.ComputeChunks(context.Background(), lat.Top(), []int{0})
	if err != nil {
		t.Fatalf("request across restart: %v", err)
	}
	if len(got) != 1 || got[0].Cells() == 0 {
		t.Fatalf("bad chunks across restart: %v", got)
	}
}

func TestRemoteExhaustsRetriesToUnavailable(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	remote, err := DialPolicy(addr, quickPolicy(3), 0, obs.RemoteMetrics{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()
	srv.Close() // nothing listening any more

	start := time.Now()
	_, _, err = remote.ComputeChunks(context.Background(), e.Grid().Lattice().Top(), []int{0})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead backend error = %v, want ErrUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("retry budget took %v, policy should bound it tightly", elapsed)
	}
}

func TestRemotePermanentErrorNotRetried(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	remote, err := DialPolicy(addr, quickPolicy(5), 0, obs.RemoteMetrics{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()

	_, _, err = remote.ComputeChunks(context.Background(), 9999, []int{0})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("bad-request error = %v, want RemoteError", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatalf("deterministic rejection misclassified as unavailability")
	}
}

func TestServerSurvivesMalformedFrame(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	// A raw connection spewing garbage: the server must close it cleanly…
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	// Garbage that fails the frame header's magic check immediately, so the
	// reader drops the connection instead of waiting for more bytes.
	raw.Write([]byte("\x03\xff\xfe\xfd"))
	buf := make([]byte, 64)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatalf("server answered a garbage frame instead of closing")
	}
	raw.Close()

	// …while healthy clients keep working.
	remote, err := DialPolicy(addr, quickPolicy(3), 0, obs.RemoteMetrics{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()
	if _, _, err := remote.ComputeChunks(context.Background(), e.Grid().Lattice().Top(), []int{0}); err != nil {
		t.Fatalf("healthy client after garbage frame: %v", err)
	}
}

func TestServerRequestTimeoutRepliesTransient(t *testing.T) {
	// Simulated latency far above the server's per-request budget: the
	// server must reply an in-band transient error (and keep the connection)
	// rather than hang or tear down.
	e, _ := tinyEngine(t, LatencyModel{Connect: time.Second, Sleep: true})
	srv := NewServer(e)
	srv.SetTimeouts(Timeouts{Request: 20 * time.Millisecond, Write: time.Minute})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	remote, err := DialPolicy(addr, RetryPolicy{
		MaxAttempts: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
		DialTimeout: time.Second, IOTimeout: 10 * time.Second, Seed: 1,
	}, 0, obs.RemoteMetrics{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()

	_, _, err = remote.ComputeChunks(context.Background(), e.Grid().Lattice().Top(), []int{0})
	if err == nil {
		t.Fatalf("expected a server-side timeout error")
	}
	if !IsTransient(err) && !errors.Is(err, ErrUnavailable) {
		t.Fatalf("server timeout should classify as retryable/outage, got %v", err)
	}
}

// fakeChunkServer answers every compute request through reply, which sees the
// real engine's answer and returns the payload to send instead.
func fakeChunkServer(t *testing.T, e *Engine, reply func(chunks []*chunk.Chunk, stats Stats) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				wire.ServeConn(conn, wire.ConnOptions{}, func(fr *wire.Frame) wire.Frame {
					gb, nums, err := decodeRequest(fr.Payload)
					if err != nil {
						return errorFrame(err.Error(), false)
					}
					chunks, stats, err := e.ComputeChunks(context.Background(), gb, nums)
					if err != nil {
						return errorFrame(err.Error(), false)
					}
					return wire.Frame{Type: frameChunks, Payload: reply(chunks, stats)}
				})
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRemoteRejectsReplyThatIsNotTheRequest: the middle tier files reply i
// under requested chunk i, so a backend that answers with other chunks than
// were asked for — two slabs swapped, one missing, another group-by's, or
// bytes after the last slab — must be refused by the client, as a permanent
// error that is neither retried nor counted as an outage, rather than
// silently poisoning the cache.
func TestRemoteRejectsReplyThatIsNotTheRequest(t *testing.T) {
	e, _ := tinyEngine(t, LatencyModel{})
	base := e.Grid().Lattice().Base()
	cases := map[string]func(chunks []*chunk.Chunk, stats Stats) []byte{
		"swapped": func(chunks []*chunk.Chunk, stats Stats) []byte {
			chunks[0], chunks[1] = chunks[1], chunks[0]
			return encodeChunksResponse(nil, chunks, stats)
		},
		"short": func(chunks []*chunk.Chunk, stats Stats) []byte {
			return encodeChunksResponse(nil, chunks[:len(chunks)-1], stats)
		},
		"other group-by": func(chunks []*chunk.Chunk, stats Stats) []byte {
			other := *chunks[0]
			other.GB = base - 1
			chunks[0] = &other
			return encodeChunksResponse(nil, chunks, stats)
		},
		"trailing bytes": func(chunks []*chunk.Chunk, stats Stats) []byte {
			return append(encodeChunksResponse(nil, chunks, stats), 0)
		},
		"faithful": func(chunks []*chunk.Chunk, stats Stats) []byte {
			return encodeChunksResponse(nil, chunks, stats)
		},
	}
	for name, reply := range cases {
		var served atomic.Int64
		addr := fakeChunkServer(t, e, func(chunks []*chunk.Chunk, stats Stats) []byte {
			served.Add(1)
			return reply(chunks, stats)
		})
		remote, err := DialPolicy(addr, quickPolicy(4), 0, obs.RemoteMetrics{})
		if err != nil {
			t.Fatalf("%s: Dial: %v", name, err)
		}
		chunks, _, err := remote.ComputeChunks(context.Background(), base, []int{0, 1, 2})
		remote.Close()
		if name == "faithful" {
			if err != nil || len(chunks) != 3 {
				t.Fatalf("faithful reply refused: %d chunks, %v", len(chunks), err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s: reply accepted: %v", name, chunks)
		}
		if IsTransient(err) || countsAsOutage(err) || errors.Is(err, ErrUnavailable) {
			t.Fatalf("%s: refusal %v classified as transient or as an outage", name, err)
		}
		if n := served.Load(); n != 1 {
			t.Fatalf("%s: request was sent %d times, want 1 (a wrong reply is not retried)", name, n)
		}
	}
}
