package mtier

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

// Frame types of the peer cache protocol. Peers ride the same listener,
// framing layer and mux as client queries — a cluster member is just another
// pipelined client of its neighbor, with one extra request type:
//
//	PeerGet   0x20 → PeerChunk 0xA0   ask the owner for one chunk
//	                 wire.FrameError  failure
//
// A PeerGet miss is an authoritative answer (found=0), never an error: the
// owner does not consult its own backend on a peer's behalf — only the
// querying node charges a backend trip, so a chunk resident nowhere costs
// the cluster exactly one fetch.
//
// 0x21 was PeerPut, the replication request of wire version 1, and 0xE1
// was PeerErr, the peer failure reply before version 3. No node that sends
// either gets past the version check, so both are unassigned.
const (
	framePeerGet   uint8 = 0x20
	framePeerChunk uint8 = 0xA0
)

// dialTimeout bounds each (re)connect of a peer or query client.
const dialTimeout = 2 * time.Second

// encodePeerGet appends a framePeerGet payload: gb u32 | num u32.
func encodePeerGet(b []byte, k cache.Key) []byte {
	b = wire.AppendU32(b, uint32(k.GB))
	b = wire.AppendU32(b, uint32(k.Num))
	return b
}

// decodePeerGet parses a framePeerGet payload.
func decodePeerGet(p []byte) (cache.Key, error) {
	d := wire.NewDec(p)
	k := cache.Key{GB: lattice.ID(d.U32()), Num: int32(d.U32())}
	if d.Err() != nil || d.Remaining() != 0 {
		return cache.Key{}, errors.New("mtier: malformed peer get payload")
	}
	return k, nil
}

// encodePeerChunk appends a framePeerChunk payload:
// found u8 | class u8 | benefit f64 | chunk (wire.AppendChunk, present only
// when found).
func encodePeerChunk(b []byte, data *chunk.Chunk, cl cache.Class, benefit float64, found bool) []byte {
	if !found {
		return wire.AppendU8(b, 0)
	}
	b = wire.AppendU8(b, 1)
	b = wire.AppendU8(b, uint8(cl))
	b = wire.AppendF64(b, benefit)
	return wire.AppendChunk(b, data)
}

// decodePeerChunk parses a framePeerChunk payload.
func decodePeerChunk(p []byte) (data *chunk.Chunk, cl cache.Class, benefit float64, found bool, err error) {
	bad := errors.New("mtier: malformed peer chunk payload")
	d := wire.NewDec(p)
	switch d.U8() {
	case 0:
		if d.Err() != nil || d.Remaining() != 0 {
			return nil, 0, 0, false, bad
		}
		return nil, 0, 0, false, nil
	case 1:
	default:
		return nil, 0, 0, false, bad
	}
	c := d.U8()
	benefit = d.F64()
	data = d.Chunk()
	if data == nil || d.Err() != nil || d.Remaining() != 0 || c > uint8(cache.ClassComputed) {
		return nil, 0, 0, false, bad
	}
	return data, cache.Class(c), benefit, true, nil
}

// peerStore returns the store peer requests should be served from: the local
// hot tier when the engine's store is a Peered (never the peer tier itself —
// answering a peer from another peer would let a chunk resident nowhere
// bounce around the ring), otherwise the store as-is.
func (s *Server) peerStore() cache.Store {
	st := s.engine.Cache()
	if p, ok := st.(interface{ Local() cache.Store }); ok {
		return p.Local()
	}
	return st
}

// validKey reports whether a peer-supplied key names a real chunk of this
// grid — a malformed or hostile key must not poison the cache.
func (s *Server) validKey(k cache.Key) bool {
	if k.GB < 0 || int(k.GB) >= s.grid.Lattice().NumNodes() {
		return false
	}
	return k.Num >= 0 && int(k.Num) < s.grid.NumChunks(k.GB)
}

// handlePeerGet answers a peer's chunk lookup from the local tier.
func (s *Server) handlePeerGet(fr *wire.Frame) wire.Frame {
	k, err := decodePeerGet(fr.Payload)
	if err != nil {
		return wire.ErrorFrame(err.Error(), false)
	}
	if !s.validKey(k) {
		return wire.ErrorFrame(fmt.Sprintf("mtier: peer get: no such chunk (%d,%d)", k.GB, k.Num), false)
	}
	data, cl, benefit, found := s.peerStore().GetInfo(k)
	return wire.Frame{Type: framePeerChunk, Payload: encodePeerChunk(nil, data, cl, benefit, found)}
}

// PeerClient is the cache.Peer implementation over the middle-tier wire
// protocol: one backend.Exchange per peer, shared by concurrent fills. There
// is no retry loop here — the Peered store's per-peer circuit
// owns failure policy, so one failed exchange reports immediately (marked
// transient when a fresh connection might cure it) and the broken
// connection is dropped for the next exchange to redial.
type PeerClient struct{ x *backend.Exchange }

// NewPeerClient returns a lazily-connecting peer client; the peer need not
// be reachable yet. Dials and exchanges are bounded by 2s each; the Peered
// store's fill timeout is shorter or equal. Response frames are bounded by
// wire.DefaultMaxPayload: every caller passes 0 for maxPayload, which is
// unused and stays only for callers compiled against this signature.
func NewPeerClient(addr string, _ int) *PeerClient {
	return &PeerClient{x: backend.NewExchange(addr, dialTimeout, dialTimeout, obs.RemoteMetrics{})}
}

// Get implements cache.Peer.
func (c *PeerClient) Get(ctx context.Context, k cache.Key) (*chunk.Chunk, cache.Class, float64, bool, error) {
	fr, err := c.x.RoundTrip(ctx, framePeerGet, encodePeerGet(nil, k))
	if err != nil {
		return nil, 0, 0, false, err
	}
	if fr.Type != framePeerChunk {
		return nil, 0, 0, false, fmt.Errorf("mtier: peer get: unexpected frame type 0x%02x", fr.Type)
	}
	data, cl, benefit, found, err := decodePeerChunk(fr.Payload)
	// The caller files the reply under k, so a reply holding another chunk —
	// a confused or stale peer — must never reach it. The peer did answer,
	// so this is a permanent error, as in backend.Remote.ComputeChunks.
	if found && (data.GB != k.GB || data.Num != k.Num) {
		return nil, 0, 0, false, fmt.Errorf("mtier: peer get: reply is chunk %d of group-by %d, requested chunk %d of group-by %d",
			data.Num, data.GB, k.Num, k.GB)
	}
	return data, cl, benefit, found, err
}

// Put implements cache.Peer's deprecated method: it does no I/O and always
// fails.
func (c *PeerClient) Put(context.Context, cache.Key, *chunk.Chunk, cache.Class, float64) error {
	return errors.New("mtier: peer put: the peer tier does not replicate")
}

// Close implements cache.Peer.
func (c *PeerClient) Close() error { return c.x.Close() }
