package cache

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/chunk"
)

// blockingPeer is a Peer whose Put parks until released, wedging the
// replication worker so the bounded put queue can be filled deterministically.
type blockingPeer struct {
	started chan struct{} // receives one signal when the first Put begins
	release chan struct{} // closed to let every parked/future Put proceed
	puts    atomic.Int64
}

func newBlockingPeer() *blockingPeer {
	return &blockingPeer{started: make(chan struct{}, 1), release: make(chan struct{})}
}

func (b *blockingPeer) Get(ctx context.Context, k Key) (*chunk.Chunk, Class, float64, bool, error) {
	return nil, 0, 0, false, nil
}

func (b *blockingPeer) Put(ctx context.Context, k Key, data *chunk.Chunk, cl Class, benefit float64) error {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-b.release
	b.puts.Add(1)
	return nil
}

func (b *blockingPeer) Close() error { return nil }

// TestPeeredPutQueueOverflow pins the replication backpressure contract:
// with the single worker wedged and the bounded queue full, every further
// backend-class insert (a) still lands in the local store, (b) returns
// without blocking, and (c) increments PutDrops exactly once — and once the
// worker drains, replication resumes with no residue.
func TestPeeredPutQueueOverflow(t *testing.T) {
	const queue = 4
	local, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	peer := newBlockingPeer()
	p, err := NewPeered(local, PeeredConfig{
		Members:    []string{"remote"},
		Dial:       func(string) Peer { return peer },
		PutQueue:   queue,
		PutWorkers: 1,
	})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	t.Cleanup(func() { p.Close() })

	insert := func(i int) {
		t.Helper()
		start := time.Now()
		if !p.Insert(key(i), mkChunk(0, i, 5), AsBackend(1)) {
			t.Fatalf("insert %d denied", i)
		}
		// The replication path is select/default: a full queue must never
		// block the inserting query thread.
		if d := time.Since(start); d > time.Second {
			t.Fatalf("insert %d took %v with the queue full", i, d)
		}
	}

	// First insert: the worker dequeues it and parks inside Put.
	insert(0)
	select {
	case <-peer.started:
	case <-time.After(5 * time.Second):
		t.Fatalf("replication worker never picked up the first put")
	}
	// With the worker wedged, exactly PutQueue more fit in the channel.
	for i := 1; i <= queue; i++ {
		insert(i)
	}
	if drops := p.PeerStats().PutDrops; drops != 0 {
		t.Fatalf("PutDrops = %d while the queue still had room", drops)
	}
	// Sustained puts against the full queue: each increments PutDrops
	// exactly once, and nothing blocks.
	const overflow = 5
	for i := queue + 1; i <= queue+overflow; i++ {
		insert(i)
	}
	if drops := p.PeerStats().PutDrops; drops != overflow {
		t.Fatalf("PutDrops = %d after %d overflow inserts, want exactly %d", drops, overflow, overflow)
	}
	// Every insert — dropped or not — is resident locally regardless.
	for i := 0; i <= queue+overflow; i++ {
		if !IsResident(local, key(i)) {
			t.Fatalf("chunk %d missing from the local store", i)
		}
	}

	// Drain: the wedged put and the queued ones all deliver.
	close(peer.release)
	deadline := time.Now().Add(5 * time.Second)
	for p.PeerStats().Puts != queue+1 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d puts after drain, want %d", p.PeerStats().Puts, queue+1)
		}
		time.Sleep(time.Millisecond)
	}
	// Recovery: a fresh insert replicates normally and drops stay put.
	insert(queue + overflow + 1)
	deadline = time.Now().Add(5 * time.Second)
	for p.PeerStats().Puts != queue+2 {
		if time.Now().After(deadline) {
			t.Fatalf("post-drain replication never delivered (puts=%d)", p.PeerStats().Puts)
		}
		time.Sleep(time.Millisecond)
	}
	if drops := p.PeerStats().PutDrops; drops != overflow {
		t.Fatalf("PutDrops moved to %d after recovery, want still %d", drops, overflow)
	}
}
