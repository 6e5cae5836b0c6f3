// The undecodable-entry test lives in the external test package so a real
// VCMC strategy (which imports cache) can listen to the store.
package cache_test

import (
	"testing"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/chunk/chunktest"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// TestTieredUndecodableColdEntryIsEvicted: a cold resident whose bytes no
// longer decode is dropped by the next read of it — a lookup or a pin — and
// the drop is an eviction. The strategy hears Evicted, so VCMC stops counting
// the chunk and Find stops planning through it.
func TestTieredUndecodableColdEntryIsEvicted(t *testing.T) {
	for _, read := range []struct {
		name string
		fn   func(*cache.Sharded, cache.Key) bool
	}{
		{"Get", func(tc *cache.Sharded, k cache.Key) bool { _, ok := tc.Get(k); return ok }},
		{"Pin", func(tc *cache.Sharded, k cache.Key) bool { return tc.Pin(k) }},
	} {
		t.Run(read.name, func(t *testing.T) {
			g := chunktest.StarGrid()
			lat := g.Lattice()
			vcmc := strategy.NewVCMC(g, sizer.NewEstimate(g, 1000))
			top := cache.Key{GB: lat.Top(), Num: 0}
			other := cache.Key{GB: lat.Base(), Num: 0}
			payload := func(k cache.Key) *chunk.Chunk {
				c := &chunk.Chunk{GB: k.GB, Num: k.Num}
				for i := 0; i < 10; i++ {
					c.Keys = append(c.Keys, uint64(i))
					c.Vals = append(c.Vals, 1)
				}
				return c
			}
			pol, err := cache.NewPolicy("lru")
			if err != nil {
				t.Fatalf("NewPolicy: %v", err)
			}
			hot, err := cache.New(payload(top).Bytes(), pol)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			tc, err := cache.NewTiered(hot, 1<<16)
			if err != nil {
				t.Fatalf("NewTiered: %v", err)
			}
			tc.SetListener(vcmc)
			tc.Insert(top, payload(top), cache.AsBackend(1))
			tc.Insert(other, payload(other), cache.AsBackend(1)) // demotes top
			if n := vcmc.Count(top.GB, int(top.Num)); n != 1 {
				t.Fatalf("count of the demoted chunk = %d, want 1", n)
			}
			if !cache.CorruptCold(tc, top) {
				t.Fatalf("top chunk is not cold-resident")
			}
			if read.fn(tc, top) {
				t.Fatalf("%s served an undecodable chunk", read.name)
			}
			if n := vcmc.Count(top.GB, int(top.Num)); n != 0 {
				t.Fatalf("VCMC still counts the dropped chunk: count %d", n)
			}
			if _, found, _ := vcmc.Find(top.GB, int(top.Num)); found {
				t.Fatalf("Find still plans through the dropped chunk")
			}
			if cache.IsResident(tc, top) || tc.TierStats().ColdEvicts != 1 {
				t.Fatalf("dropped chunk: resident %v, cold evictions %d; want gone and 1",
					cache.IsResident(tc, top), tc.TierStats().ColdEvicts)
			}
		})
	}
}
