package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// flightKey identifies one in-flight backend chunk fetch.
type flightKey struct {
	gb  lattice.ID
	num int
}

// flightCall is one chunk's pending fetch. The leader query fills the
// result fields and closes done; follower queries block on done and read
// them. tuples and cost are the chunk's even share of the leader's batch
// statistics — the backend reports per-batch, not per-chunk, numbers.
type flightCall struct {
	done   chan struct{}
	data   *chunk.Chunk
	tuples int64
	cost   time.Duration
	peer   bool // filled from a cluster peer, not the backend
	err    error
}

// flightGroup deduplicates identical concurrent chunk fetches: a burst of
// queries missing the same (group-by, chunk) issues one peer fill and at
// most one backend request. It is the only deduplication of peer fills —
// the leader alone calls PeerFill. Leaders always publish and retire their own flights before
// waiting on anyone else's, so flights cannot deadlock. A leader that fails
// — backend error, cancelled context — publishes the error and retires the
// flight all the same, so followers never strand; a follower whose leader
// died of its own context (not the follower's) retries the fetch itself,
// bounded by maxFollowerRetries.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
}

// maxFollowerRetries bounds how many times a follower re-attempts chunks
// whose flight leader failed with a context error that was the leader's own.
const maxFollowerRetries = 2

// finish publishes the leader's outcome to each flight and retires it. On
// success chunks[i] pairs with calls[i]; on error chunks is nil. fromPeer
// records whether the chunks came from a cluster peer rather than the
// backend, so followers account them as peer chunks too.
func (g *flightGroup) finish(gb lattice.ID, nums []int, calls []*flightCall, chunks []*chunk.Chunk, tuples int64, cost time.Duration, fromPeer bool, err error) {
	g.mu.Lock()
	for i, c := range calls {
		if err == nil {
			c.data = chunks[i]
			c.tuples = tuples
			c.cost = cost
			c.peer = fromPeer
		}
		c.err = err
		close(c.done)
		delete(g.m, flightKey{gb: gb, num: nums[i]})
	}
	g.mu.Unlock()
}

// errLeaderAborted is what followers of a flight read when its leader
// unwound without publishing an outcome — a panic below the engine, which
// the server's panic guard turns into an error reply for the leader alone.
var errLeaderAborted = errors.New("core: the query fetching this chunk aborted")

// abandon publishes errLeaderAborted to the flights among calls that are
// still open. Only their leader publishes its flights, so reading done
// needs no lock, and a published flight's key, which may belong to a newer
// flight by now, is left alone.
func (g *flightGroup) abandon(gb lattice.ID, nums []int, calls []*flightCall) {
	for i, c := range calls {
		select {
		case <-c.done:
		default:
			g.finish(gb, nums[i:i+1], calls[i:i+1], nil, 0, 0, false, errLeaderAborted)
		}
	}
}

// fetchMissing obtains every missing chunk from the backend, deduplicating
// against identical fetches already in flight. Chunks nobody is fetching are
// batched into one ComputeChunks call led by this query; chunks with an
// existing flight are awaited after this query's own batch completes.
func (e *Engine) fetchMissing(ctx context.Context, gb lattice.ID, missing, missingIdx []int, res *Result, retry int) error {
	own := make([]int, 0, len(missing))
	ownIdx := make([]int, 0, len(missing))
	var ownCalls []*flightCall
	var waits []*flightCall
	var waitIdx []int
	var waitNum []int
	e.flights.mu.Lock()
	for i, num := range missing {
		k := flightKey{gb: gb, num: num}
		if c, ok := e.flights.m[k]; ok {
			waits = append(waits, c)
			waitIdx = append(waitIdx, missingIdx[i])
			waitNum = append(waitNum, num)
			continue
		}
		c := &flightCall{done: make(chan struct{})}
		e.flights.m[k] = c
		ownCalls = append(ownCalls, c)
		own = append(own, num)
		ownIdx = append(ownIdx, missingIdx[i])
	}
	e.flights.mu.Unlock()
	// Whatever happens below, no flight this query leads stays open: a
	// panicking backend or peer call must fail the followers, not strand
	// them.
	defer func() { e.flights.abandon(gb, own, ownCalls) }()
	e.met.FlightLeaderChunks.Add(int64(len(own)))
	e.met.FlightFollowerChunks.Add(int64(len(waits)))

	// Cluster tier: before paying for a backend trip, offer each chunk this
	// query leads to the key's ring owner, all exchanges in flight at once
	// (they pipeline on the per-peer mux). A peer hit publishes to the
	// flight exactly like a backend fetch would (followers never strand)
	// and the chunk drops out of the backend batch; a miss, error or open
	// breaker leaves it in. PeerFill has already installed the chunk in the
	// local store, so the strategy saw the arrival through the listener.
	if e.peers != nil && len(own) > 0 {
		peerStart := time.Now()
		filled := make([]*chunk.Chunk, len(own))
		var wg sync.WaitGroup
		for i, num := range own {
			wg.Add(1)
			go func(i, num int) {
				defer wg.Done()
				// A panicking fill is a failed one: the chunk stays in the
				// backend batch. No handler's guard sits above this goroutine.
				defer func() {
					if r := recover(); r != nil {
						e.met.PeerFillPanics.Inc()
					}
				}()
				if data, ok := e.peers.PeerFill(ctx, cache.Key{GB: gb, Num: int32(num)}); ok {
					filled[i] = data
				}
			}(i, num)
		}
		wg.Wait()
		kept := 0
		for i, num := range own {
			if filled[i] == nil {
				own[kept] = own[i]
				ownIdx[kept] = ownIdx[i]
				ownCalls[kept] = ownCalls[i]
				kept++
				continue
			}
			res.Chunks[ownIdx[i]] = filled[i]
			res.PeerChunks++
			e.flights.finish(gb, []int{num}, []*flightCall{ownCalls[i]}, []*chunk.Chunk{filled[i]}, 0, 0, true, nil)
		}
		own = own[:kept]
		ownIdx = ownIdx[:kept]
		ownCalls = ownCalls[:kept]
		res.Breakdown.Backend += time.Since(peerStart)
	}

	if len(own) > 0 {
		// fetchBackend inserts before the flights are published, so
		// followers that re-probe find the chunks resident.
		chunks, bstats, update, err := e.fetchBackend(ctx, gb, own)
		if err != nil {
			err = fmt.Errorf("core: backend: %w", err)
			// Publish the failure so followers never strand on the flight.
			e.flights.finish(gb, own, ownCalls, nil, 0, 0, false, err)
			return err
		}
		for i, c := range chunks {
			res.Chunks[ownIdx[i]] = c
		}
		res.Breakdown.Backend += bstats.Cost()
		res.Breakdown.Update += update
		res.BackendTuples += bstats.TuplesScanned

		n := int64(len(own))
		e.flights.finish(gb, own, ownCalls, chunks, bstats.TuplesScanned/n, bstats.Cost()/time.Duration(n), false, nil)
	}

	// Chunks whose leader failed with a context error that was not ours:
	// the fetch itself may be perfectly healthy, so retry it under our own
	// context rather than inheriting the leader's cancellation.
	var again []int
	var againIdx []int
	for i, c := range waits {
		select {
		case <-c.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if c.err != nil {
			leaderCtxDied := errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)
			if leaderCtxDied && ctx.Err() == nil && retry < maxFollowerRetries {
				again = append(again, waitNum[i])
				againIdx = append(againIdx, waitIdx[i])
				continue
			}
			return c.err
		}
		res.Chunks[waitIdx[i]] = c.data
		res.BackendTuples += c.tuples
		res.Breakdown.Backend += c.cost
		if c.peer {
			res.PeerChunks++
		}
	}
	if len(again) > 0 {
		return e.fetchMissing(ctx, gb, again, againIdx, res, retry+1)
	}
	return nil
}

// fetchBackend is the engine's one backend request: it fetches chunks nums
// of gb, checks the reply holds one chunk per number (a long reply would
// index past nums, a short one would leave chunks unanswered while the
// request reported success), counts the request, and inserts each chunk as
// backend class at the request's benefit per chunk. It returns the chunks in
// request order and the strategy maintenance time the inserts took, which
// is approximate under concurrency (see the insert phase in execute).
func (e *Engine) fetchBackend(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, backend.Stats, time.Duration, error) {
	chunks, bstats, err := e.back.ComputeChunks(ctx, gb, nums)
	if err == nil && len(chunks) != len(nums) {
		err = fmt.Errorf("backend returned %d chunks, want %d", len(chunks), len(nums))
	}
	if err != nil {
		return nil, bstats, 0, err
	}
	e.met.BackendRequests.Inc()
	e.met.BackendTuples.Add(bstats.TuplesScanned)
	benefit := (float64(bstats.TuplesScanned)*backendPenalty + connectCost) / float64(len(nums))
	m0 := e.strat.Maintenance()
	for i, c := range chunks {
		e.cache.Insert(cache.Key{GB: gb, Num: int32(nums[i])}, c, cache.AsBackend(benefit))
	}
	return chunks, bstats, e.strat.Maintenance().Sub(m0).Time, nil
}
