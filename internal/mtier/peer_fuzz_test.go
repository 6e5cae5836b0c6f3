package mtier

import (
	"testing"

	"aggcache/internal/cache"
)

// FuzzPeerFrame throws arbitrary bytes at both peer payload decoders.
// The invariants mirror wire.FuzzFrame: no panic, no allocation the payload
// cannot back, and everything a decoder accepts re-encodes byte-identically.
func FuzzPeerFrame(f *testing.F) {
	k := cache.Key{GB: 3, Num: 17}
	data := peerChunk(17, 5)
	f.Add(encodePeerGet(nil, k))
	f.Add(encodePeerChunk(nil, data, cache.ClassBackend, 2.5, true))
	f.Add(encodePeerChunk(nil, nil, 0, 0, false))
	f.Add(encodePeerChunk(nil, data, cache.Class(9), 2.5, true)) // class out of range
	f.Add(append(encodePeerGet(nil, k), 0xFF))                   // trailing byte
	f.Add(encodePeerChunk(nil, peerChunk(0, 0), cache.ClassComputed, 0, true))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if gk, err := decodePeerGet(payload); err == nil {
			if got := encodePeerGet(nil, gk); string(got) != string(payload) {
				t.Fatalf("peer get did not round-trip: %x vs %x", got, payload)
			}
		}
		if c, cl, benefit, found, err := decodePeerChunk(payload); err == nil {
			if found && 9*c.Cells() > len(payload) {
				t.Fatalf("decoded %d cells from %d payload bytes", c.Cells(), len(payload))
			}
			if got := encodePeerChunk(nil, c, cl, benefit, found); string(got) != string(payload) {
				t.Fatalf("peer chunk did not round-trip: %x vs %x", got, payload)
			}
		}
	})
}
