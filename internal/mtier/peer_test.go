package mtier

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
	"aggcache/internal/wire"
)

func peerChunk(num, n int) *chunk.Chunk {
	c := &chunk.Chunk{GB: 0, Num: int32(num)}
	for i := 0; i < n; i++ {
		c.Keys = append(c.Keys, uint64(i))
		c.Vals = append(c.Vals, float64(i))
	}
	return c
}

func TestPeerCodecRoundTrips(t *testing.T) {
	k := cache.Key{GB: 3, Num: 17}

	gk, err := decodePeerGet(encodePeerGet(nil, k))
	if err != nil || gk != k {
		t.Fatalf("peer get round trip = %v, %v", gk, err)
	}

	data := peerChunk(17, 9)
	for _, found := range []bool{true, false} {
		got, cl, benefit, f, err := decodePeerChunk(encodePeerChunk(nil, data, cache.ClassComputed, 12.5, found))
		if err != nil || f != found {
			t.Fatalf("peer chunk(found=%v) round trip: found=%v err=%v", found, f, err)
		}
		if found && (got == nil || got.Cells() != 9 || cl != cache.ClassComputed || benefit != 12.5) {
			t.Fatalf("peer chunk fields: %v %v %v", got, cl, benefit)
		}
	}
}

func TestPeerCodecRejectsMalformed(t *testing.T) {
	k := cache.Key{GB: 1, Num: 2}
	data := peerChunk(2, 3)
	valid := map[string][]byte{
		"get":   encodePeerGet(nil, k),
		"chunk": encodePeerChunk(nil, data, cache.ClassBackend, 1, true),
	}
	decode := map[string]func([]byte) error{
		"get":   func(p []byte) error { _, err := decodePeerGet(p); return err },
		"chunk": func(p []byte) error { _, _, _, _, err := decodePeerChunk(p); return err },
	}
	for name, payload := range valid {
		if err := decode[name](payload); err != nil {
			t.Fatalf("%s: valid payload rejected: %v", name, err)
		}
		// Truncations at every boundary must fail cleanly, never panic.
		for cut := 0; cut < len(payload); cut++ {
			if err := decode[name](payload[:cut]); err == nil {
				t.Errorf("%s: truncation at %d accepted", name, cut)
			}
		}
		// Trailing garbage must fail too (Remaining() != 0).
		if err := decode[name](append(append([]byte{}, payload...), 0xFF)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
	// Class out of range.
	bad := encodePeerChunk(nil, data, cache.Class(9), 1, true)
	if _, _, _, _, err := decodePeerChunk(bad); err == nil {
		t.Errorf("chunk: out-of-range class accepted")
	}
}

// startPeeredServer is startServer with the engine's store wrapped in a
// Peered, the way a cluster member actually runs: peer requests must be
// served from the local tier behind the Peered, never the peer tier itself.
func startPeeredServer(t *testing.T) (string, *cache.Peered) {
	t.Helper()
	c, _ := cache.New(1<<20, cache.NewTwoLevel())
	return startPeeredServerOver(t, c)
}

// startPeeredServerOver is startPeeredServer with local as the local tier.
func startPeeredServerOver(t *testing.T, local cache.Store) (string, *cache.Peered) {
	t.Helper()
	addr, pc, _ := startPeeredNode(t, local, cache.PeeredConfig{Self: "self", Members: []string{"self"}})
	return addr, pc
}

// startPeeredNode starts a middle tier over local wrapped in a Peered with
// pcfg, and returns its address, its store and the fact table's total.
func startPeeredNode(t *testing.T, local cache.Store, pcfg cache.PeeredConfig) (string, *cache.Peered, float64) {
	t.Helper()
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(44)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	pc, err := cache.NewPeered(local, pcfg)
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	eng, err := core.New(g, pc, strategy.NewVCMC(g, sz), be, sz)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	srv := NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close(); pc.Close() })
	var total float64
	for i := 0; i < tab.Len(); i++ {
		total += tab.Value(i)
	}
	return addr, pc, total
}

func TestPeerClientGetPut(t *testing.T) {
	addr, pc := startPeeredServer(t)
	cl := NewPeerClient(addr, 0)
	defer cl.Close()
	ctx := context.Background()
	k := cache.Key{GB: 0, Num: 0}

	// Miss is authoritative: found=false, no error.
	if _, _, _, found, err := cl.Get(ctx, k); err != nil || found {
		t.Fatalf("cold Get = found %v, err %v", found, err)
	}

	// The deprecated Put fails without reaching the owner.
	if err := cl.Put(ctx, k, peerChunk(0, 4), cache.ClassBackend, 33); err == nil {
		t.Fatalf("Put succeeded; the peer tier does not replicate")
	}
	if _, _, _, found := pc.GetInfo(k); found {
		t.Fatalf("Put installed the chunk at the owner")
	}

	// A chunk the owner's own traffic made resident is served with the
	// owner's stored attributes.
	pc.Insert(k, peerChunk(0, 4), cache.AsComputed(33))
	got, gcl, gbenefit, found, err := cl.Get(ctx, k)
	if err != nil || !found || got.Cells() != 4 || gcl != cache.ClassComputed || gbenefit != 33 {
		t.Fatalf("warm Get = %v %v %v %v %v", got, gcl, gbenefit, found, err)
	}
}

// TestPeerGetOfColdChunkStaysCold: a PeerGet of a key that is cold-resident
// on the owner is answered found, with the class and benefit the chunk was
// demoted with, and the key stays cold on the owner: serving a peer moves
// nothing between tiers.
func TestPeerGetOfColdChunkStaysCold(t *testing.T) {
	pol, err := cache.NewPolicy("lru")
	if err != nil {
		t.Fatalf("NewPolicy: %v", err)
	}
	hot, err := cache.New(peerChunk(0, 4).Bytes(), pol)
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	tc, err := cache.NewTiered(hot, 1<<16)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	addr, _ := startPeeredServerOver(t, tc)
	cold, warm := cache.Key{GB: 0, Num: 0}, cache.Key{GB: 1, Num: 0}
	warmData := peerChunk(0, 4)
	warmData.GB = warm.GB
	tc.Insert(cold, peerChunk(0, 4), cache.AsBackend(21))
	tc.Insert(warm, warmData, cache.AsBackend(1)) // demotes cold
	if _, ok := tc.Peek(cold); !ok || tc.TierStats().ColdChunks != 1 || tc.TierStats().Demotes != 1 {
		t.Fatalf("key %v is not cold-resident on the owner: %+v", cold, tc.TierStats())
	}

	cl := NewPeerClient(addr, 0)
	defer cl.Close()
	got, gcl, gbenefit, found, err := cl.Get(context.Background(), cold)
	if err != nil || !found || got.Cells() != 4 || gcl != cache.ClassBackend || gbenefit != 21 {
		t.Fatalf("PeerGet of the cold key = %v %v %v found %v, err %v", got, gcl, gbenefit, found, err)
	}
	// Moving the cold key up would have demoted the warm one: a second
	// demote.
	if ts := tc.TierStats(); ts.ColdHits != 1 || ts.ColdChunks != 1 || ts.Demotes != 1 || tc.Len() != 2 {
		t.Fatalf("owner tier stats %+v, %d residents: want 1 cold hit, the key still cold, 1 demote", ts, tc.Len())
	}
}

func TestPeerServerRejectsInvalidKey(t *testing.T) {
	addr, _ := startPeeredServer(t)
	cl := NewPeerClient(addr, 0)
	defer cl.Close()
	ctx := context.Background()

	// Out-of-lattice group-by and out-of-grid chunk number.
	for _, k := range []cache.Key{{GB: 1 << 20, Num: 0}, {GB: 0, Num: 1 << 20}} {
		if _, _, _, _, err := cl.Get(ctx, k); err == nil {
			t.Errorf("Get(%v) accepted", k)
		}
	}
}

func TestPeerServerAnswersMalformedInBand(t *testing.T) {
	addr, _ := startPeeredServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	mux := wire.NewMux(conn, obs.WireMetrics{})
	defer mux.Close()

	// A garbage PeerGet payload must produce a permanent FrameError, and
	// the connection must survive to serve the next request.
	fr, err := mux.RoundTrip(context.Background(), framePeerGet, 0, []byte{1, 2, 3}, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if fr.Type != wire.FrameError || fr.Flags&wire.FlagTransient != 0 {
		t.Fatalf("frame type = %#x, flags %#x, want a permanent FrameError", fr.Type, fr.Flags)
	}
	msg := wire.DecodeError(fr.Payload)
	if !strings.Contains(msg, "malformed") {
		t.Fatalf("error message = %q", msg)
	}

	ok := encodePeerGet(nil, cache.Key{GB: 0, Num: 0})
	fr, err = mux.RoundTrip(context.Background(), framePeerGet, 0, ok, time.Now().Add(2*time.Second))
	if err != nil || fr.Type != framePeerChunk {
		t.Fatalf("follow-up on same connection: type %#x, err %v", fr.Type, err)
	}
}

func TestPeerClientErrorsAreTransient(t *testing.T) {
	// A connection-refused failure must be marked transient so the Peered
	// breaker taxonomy treats the peer as retryable.
	cl := NewPeerClient("127.0.0.1:1", 0)
	defer cl.Close()
	_, _, _, _, err := cl.Get(context.Background(), cache.Key{GB: 0, Num: 0})
	if err == nil {
		t.Fatalf("Get against dead address succeeded")
	}
	if !backend.IsTransient(err) {
		t.Fatalf("dial failure not transient: %v", err)
	}
	cl.Close()
	if _, _, _, _, err := cl.Get(context.Background(), cache.Key{GB: 0, Num: 0}); err == nil {
		t.Fatalf("Get after Close succeeded")
	}
}

// startNodeOwnedBy starts a middle tier that is not a ring member, so the
// peer at peerAddr owns every key: each miss asks that peer first and falls
// through to the backend when the peer fails.
func startNodeOwnedBy(t *testing.T, peerAddr string) (string, *cache.Peered, float64) {
	t.Helper()
	local, _ := cache.New(1<<20, cache.NewTwoLevel())
	return startPeeredNode(t, local, cache.PeeredConfig{
		Members: []string{peerAddr},
		Dial:    func(addr string) cache.Peer { return NewPeerClient(addr, 0) },
	})
}

// queryTotal runs one SUM query against the middle tier at addr and returns
// the sum of its cells.
func queryTotal(t *testing.T, addr string) float64 {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	resp, err := cl.Query("SUM(UnitSales) BY Time:Year")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var sum float64
	for _, cell := range resp.Cells {
		sum += cell.Value
	}
	return sum
}

// TestPeerReplyThatIsNotTheRequestIsRefused: the filler files a peer's
// reply under the key it asked for, so a reply holding another chunk, or a
// chunk whose keys are not strictly ascending (which Chunk.find cannot
// search), is refused as a permanent error. Nothing is installed, and the
// query is answered correctly from the backend.
func TestPeerReplyThatIsNotTheRequestIsRefused(t *testing.T) {
	addr, set := scriptedListener(t)
	wrong := map[string]func(k cache.Key) *chunk.Chunk{
		"another chunk": func(k cache.Key) *chunk.Chunk {
			return &chunk.Chunk{GB: k.GB, Num: k.Num + 1, Keys: []uint64{0}, Vals: []float64{1e9}}
		},
		"unsorted keys": func(k cache.Key) *chunk.Chunk {
			return &chunk.Chunk{GB: k.GB, Num: k.Num, Keys: []uint64{5, 1}, Vals: []float64{1e9, 1e9}}
		},
		"duplicate keys": func(k cache.Key) *chunk.Chunk {
			return &chunk.Chunk{GB: k.GB, Num: k.Num, Keys: []uint64{1, 1}, Vals: []float64{1e9, 1e9}}
		},
	}
	for name, reply := range wrong {
		t.Run(name, func(t *testing.T) {
			set(func(fr wire.Frame, w *wire.Writer, _ net.Conn) {
				k, _ := decodePeerGet(fr.Payload)
				w.WriteFrame(wire.Frame{Type: framePeerChunk, ID: fr.ID,
					Payload: encodePeerChunk(nil, reply(k), cache.ClassBackend, 1, true)})
			})
			cl := NewPeerClient(addr, 0)
			defer cl.Close()
			k := cache.Key{GB: 0, Num: 0}
			if got, _, _, _, err := cl.Get(context.Background(), k); err == nil || backend.IsTransient(err) {
				t.Fatalf("Get = %v, %v; want a permanent error", got, err)
			}

			node, pc, total := startNodeOwnedBy(t, addr)
			if _, ok := pc.PeerFill(context.Background(), k); ok {
				t.Fatalf("PeerFill accepted the reply")
			}
			if _, _, _, found := pc.GetInfo(k); found {
				t.Fatalf("the refused reply was installed under %v", k)
			}
			if sum := queryTotal(t, node); math.Abs(sum-total) > 1e-6 {
				t.Fatalf("sum = %v, want %v", sum, total)
			}
			if ps := pc.PeerStats(); ps.Fills != 0 || ps.FillErrors == 0 {
				t.Fatalf("peer stats %+v: want no fills and some fill errors", ps)
			}
		})
	}
}

// TestMixedVersionPairFailsCleanly: a node of the previous wire version
// refuses current frames by closing the connection, as its frame reader
// does on a version mismatch. Client queries, backend requests and peer
// requests against it fail promptly as transient errors; a node whose peer
// it is answers from the backend instead; and a previous-version frame sent
// to this node is refused the same way.
func TestMixedVersionPairFailsCleanly(t *testing.T) {
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
				// Every frame it is sent carries wire.Version, which its
				// reader refuses by dropping the connection after the header.
				defer conn.Close()
				io.ReadFull(conn, make([]byte, wire.HeaderSize))
			}()
		}
	}()
	old := ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	cl, err := Dial(old)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.QueryContext(ctx, "SUM(UnitSales) BY Time:Year"); !backend.IsTransient(err) {
		t.Fatalf("query against a previous-version node: %v, want a transient error", err)
	}
	r, err := backend.DialPolicy(old, backend.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}, obs.RemoteMetrics{})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer r.Close()
	if _, _, err := r.ComputeChunks(ctx, 0, []int{0}); !errors.Is(err, backend.ErrUnavailable) {
		t.Fatalf("backend request against a previous-version node: %v, want ErrUnavailable", err)
	}
	pcl := NewPeerClient(old, 0)
	defer pcl.Close()
	if _, _, _, _, err := pcl.Get(ctx, cache.Key{}); !backend.IsTransient(err) {
		t.Fatalf("peer request against a previous-version node: %v, want a transient error", err)
	}

	node, pc, total := startNodeOwnedBy(t, old)
	if sum := queryTotal(t, node); math.Abs(sum-total) > 1e-6 {
		t.Fatalf("sum = %v, want %v", sum, total)
	}
	if ps := pc.PeerStats(); ps.Fills != 0 || ps.FillErrors == 0 {
		t.Fatalf("peer stats %+v: want no fills and some fill errors", ps)
	}

	raw, err := net.Dial("tcp", node)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	var buf bytes.Buffer
	wire.NewWriter(&buf, obs.WireMetrics{}).WriteFrame(wire.Frame{Type: frameQuery, ID: 1,
		Payload: encodeQuery(nil, "SUM(UnitSales) BY Time:Year", "", 0)})
	prev := buf.Bytes()
	prev[3] = wire.Version - 1
	raw.Write(prev)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := raw.Read(make([]byte, 64)); err == nil {
		t.Fatalf("a previous-version query was answered with %d bytes", n)
	}
}
