package mtier

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
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

	pk, pdata, cl, benefit, err := decodePeerPut(encodePeerPut(nil, k, data, cache.ClassBackend, 7.25))
	if err != nil || pk != k || pdata.Cells() != 9 || cl != cache.ClassBackend || benefit != 7.25 {
		t.Fatalf("peer put round trip: %v %v %v %v %v", pk, pdata, cl, benefit, err)
	}

	for _, stored := range []bool{true, false} {
		got, err := decodePeerAck(encodePeerAck(nil, stored))
		if err != nil || got != stored {
			t.Fatalf("peer ack(%v) round trip = %v, %v", stored, got, err)
		}
	}
}

func TestPeerCodecRejectsMalformed(t *testing.T) {
	k := cache.Key{GB: 1, Num: 2}
	data := peerChunk(2, 3)
	valid := map[string][]byte{
		"get":   encodePeerGet(nil, k),
		"chunk": encodePeerChunk(nil, data, cache.ClassBackend, 1, true),
		"put":   encodePeerPut(nil, k, data, cache.ClassBackend, 1),
		"ack":   encodePeerAck(nil, true),
	}
	decode := map[string]func([]byte) error{
		"get":   func(p []byte) error { _, err := decodePeerGet(p); return err },
		"chunk": func(p []byte) error { _, _, _, _, err := decodePeerChunk(p); return err },
		"put":   func(p []byte) error { _, _, _, _, err := decodePeerPut(p); return err },
		"ack":   func(p []byte) error { _, err := decodePeerAck(p); return err },
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
	if _, _, _, _, err := decodePeerPut(encodePeerPut(nil, k, data, cache.Class(9), 1)); err == nil {
		t.Errorf("put: out-of-range class accepted")
	}
	// Ack with a non-boolean value.
	if _, err := decodePeerAck([]byte{2}); err == nil {
		t.Errorf("ack: value 2 accepted")
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
	pc, err := cache.NewPeered(local, cache.PeeredConfig{Self: "self", Members: []string{"self"}})
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
	return addr, pc
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

	// Put installs at the owner; a replica takes computed-class residency.
	if err := cl.Put(ctx, k, peerChunk(0, 4), cache.ClassBackend, 33); err != nil {
		t.Fatalf("Put: %v", err)
	}
	data, cl2, benefit, found := pc.GetInfo(k)
	if !found || data.Cells() != 4 || cl2 != cache.ClassComputed || benefit != 33 {
		t.Fatalf("owner state after put: %v %v %v %v", data, cl2, benefit, found)
	}

	// Get now serves the chunk with the owner's stored attributes.
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
	hot, err := cache.New(peerChunk(0, 4).Bytes(), cache.NewLRU())
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
		if err := cl.Put(ctx, k, peerChunk(0, 1), cache.ClassBackend, 1); err == nil {
			t.Errorf("Put(%v) accepted", k)
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
	mux := wire.NewMux(conn, 0, wire.Metrics{})
	defer mux.Close()

	// A garbage PeerGet payload must produce an in-band PeerErr, and the
	// connection must survive to serve the next request.
	fr, err := mux.RoundTrip(context.Background(), framePeerGet, 0, []byte{1, 2, 3}, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if fr.Type != framePeerErr {
		t.Fatalf("frame type = %#x, want PeerErr", fr.Type)
	}
	msg := wire.NewDec(fr.Payload).String()
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
