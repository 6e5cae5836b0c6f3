package cache

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"aggcache/internal/chunk"
)

// fullColdTier returns a cold tier holding exactly n one-cell residents of
// random benefit, with no room to spare, and the chunk they hold.
func fullColdTier(n int) (*coldTier, *chunk.Chunk, *rand.Rand) {
	data := mkChunk(0, 0, 1)
	var hot atomic.Int64
	t := newColdTier(int64(n)*(int64(chunk.EncodedSize(data))+coldEntryOverhead), &hot)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		t.add(key(i), data, ClassBackend, float64(1+rng.Intn(1000)), false, 0)
	}
	return t, data, rng
}

var sinkVictim *coldEntry

// BenchmarkColdEvict measures a demotion into a full cold tier at 64 and
// 4,096 residents: each "heap" op admits one chunk and evicts the resident of
// least priority. Benefits are random, so the victim may sit anywhere in
// insertion order. The "scan" ops only find that victim by a linear pass over
// the same residents — the cost a scan would add to every eviction. The
// heap's op grows with log n (and the larger maps' cache misses); the scan's
// grows with n.
func BenchmarkColdEvict(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("heap/residents=%d", n), func(b *testing.B) {
			t, data, rng := fullColdTier(n)
			benefits := make([]float64, 1024)
			for i := range benefits {
				benefits[i] = float64(1 + rng.Intn(1000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evicted, ok := t.add(key(n+i), data, ClassBackend, benefits[i%len(benefits)], false, 0)
				if !ok || len(evicted) != 1 {
					b.Fatalf("add %d: admitted %v, %d evicted; want one eviction", i, ok, len(evicted))
				}
			}
		})
		b.Run(fmt.Sprintf("scan/residents=%d", n), func(b *testing.B) {
			t, _, _ := fullColdTier(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var v *coldEntry
				for j, e := range t.victims {
					if v == nil || t.victims.Less(j, v.slot) {
						v = e
					}
				}
				sinkVictim = v
			}
		})
	}
}
