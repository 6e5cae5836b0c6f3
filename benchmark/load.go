package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/mtier"
	"aggcache/internal/wire"
	"aggcache/internal/workload"
)

// stream is one user's deterministic query stream, rendered as the mdq text
// the wire carries. User u of a run uses seed+u.
type stream struct {
	ds  *dataset
	src workload.Source
	// pool is the Zipf stream's query pool, replayed whole as its warm-up.
	pool []core.Query
}

// newStream builds user i's stream. Mix streams are independent per user
// (generator seed+i). The Zipf stream is a hot-key stream as workload.NewZipf
// makes one - a pool of random queries replayed under a Zipf(s) popularity
// law - except that the pool is drawn once from poolSeed and every user
// draws its own rank sequence (seed+i) over it. The pool is the working set:
// one that grew with the client count would stop fitting the store on a box
// with more cores, and because a handful of top-ranked entries carry most of
// the traffic, a pool that changed with -seed would make the run measure
// which queries happened to rank first (2.5x in qps between seeds) instead
// of the system.
func newStream(ds *dataset, spec workloadSpec, seed int64, i int) (*stream, error) {
	s := &stream{ds: ds}
	if !spec.Zipf {
		gen, err := workload.NewGenerator(ds.grid, spec.Mix, queryWidth, seed+int64(i))
		if err != nil {
			return nil, err
		}
		s.src = workload.AsSource(gen)
		return s, nil
	}
	gen, err := workload.NewGenerator(ds.grid, workload.Mix{Random: 1}, queryWidth, poolSeed)
	if err != nil {
		return nil, err
	}
	n := sizingFor(ds.scale, spec).pool
	s.pool, _ = gen.Stream(n)
	z := rand.NewZipf(rand.New(rand.NewSource(seed+int64(i))), zipfS, 1, uint64(n-1))
	s.src = zipfSource{s.pool, z}
	return s, nil
}

type zipfSource struct {
	pool []core.Query
	z    *rand.Zipf
}

func (z zipfSource) Next() core.Query { return z.pool[z.z.Uint64()] }

func (s *stream) next() string { return workload.FormatQuery(s.ds.grid, s.src.Next()) }

// warmupTexts returns, per connection, the untimed queries it sends before
// the window opens. Stream u rides connection u mod nconn. A Zipf run replays
// the whole pool once, split between the connections. Otherwise every
// connection sends perConn queries, taking its users in turn - so warm-up
// runs at the concurrency of the timed loop, its length does not depend on
// usersPerConn, and each user's timed stream continues where its warm-up
// stopped.
func warmupTexts(streams []*stream, nconn, perConn int) [][]string {
	texts := make([][]string, nconn)
	if pool := streams[0].pool; pool != nil {
		for j, q := range pool {
			texts[j%nconn] = append(texts[j%nconn], workload.FormatQuery(streams[0].ds.grid, q))
		}
		return texts
	}
	users := len(streams) / nconn
	for j := 0; j < perConn; j++ {
		for c := range texts {
			texts[c] = append(texts[c], streams[c+nconn*(j%users)].next())
		}
	}
	return texts
}

// checked is a response kept for the oracle.
type checked struct {
	text string
	resp *mtier.Response
}

// tally accumulates what one client (or one whole run) observed.
type tally struct {
	// lat holds one client-observed latency per answered request and at its
	// completion offset from the window start, both in nanoseconds.
	lat, at []int64
	// lag holds, for open-loop runs, how late each request left.
	lag []int64

	sent, ok, busy, failed int64
	completeHits           int64
	// pointHits counts CompleteHit && !Aggregated answers.
	pointHits int64
	cells     int64
	// The Figure-10 phase sums are filled by the traced pass only.
	lookupNS, aggNS, updateNS, backendNS int64

	checks []checked
}

// outcome is what the tally needs from one finished request. It copies the
// few facts out of the response, so a loop that holds many outcomes (the open
// loop holds one per request until the window ends) does not also hold every
// response's cells; resp is kept only for the oracle's sample.
type outcome struct {
	text        string
	err         error
	due, done   time.Time
	completeHit bool
	aggregated  bool
	cells       int
	resp        *mtier.Response
}

func outcomeOf(text string, resp *mtier.Response, err error, due, done time.Time, keep bool) outcome {
	o := outcome{text: text, err: err, due: due, done: done}
	if err == nil {
		o.completeHit, o.aggregated, o.cells = resp.CompleteHit, resp.Aggregated, len(resp.Cells)
		if keep {
			o.resp = resp
		}
	}
	return o
}

// observe records one finished request; t0 is the window start. Latency runs
// from o.due: when the request was sent or, open loop, was due to be sent.
func (t *tally) observe(o outcome, t0 time.Time) {
	t.sent++
	if o.err != nil {
		if _, busy := wire.AsBusy(o.err); busy {
			t.busy++
		} else {
			t.failed++
		}
		return
	}
	t.ok++
	t.lat = append(t.lat, int64(o.done.Sub(o.due)))
	t.at = append(t.at, int64(o.done.Sub(t0)))
	if o.completeHit {
		t.completeHits++
		if !o.aggregated {
			t.pointHits++
		}
	}
	t.cells += int64(o.cells)
	if o.resp != nil {
		t.checks = append(t.checks, checked{o.text, o.resp})
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.at = append(t.at, o.at...)
	t.lag = append(t.lag, o.lag...)
	t.sent += o.sent
	t.ok += o.ok
	t.busy += o.busy
	t.failed += o.failed
	t.completeHits += o.completeHits
	t.pointHits += o.pointHits
	t.cells += o.cells
	t.checks = append(t.checks, o.checks...)
}

// replay sends each client's texts back to back, all clients concurrently,
// and fails on the first error: warm-up has no business failing.
func replay(clients []*mtier.Client, texts [][]string) error {
	errs := make([]error, len(texts))
	var wg sync.WaitGroup
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clients[i%len(clients)]
			for _, q := range texts[i] {
				if _, err := c.Query(q); err != nil {
					errs[i] = fmt.Errorf("warm-up: %w", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs one goroutine per connection, each sending its next query
// as soon as the previous answer arrives, until the window closes: one
// request in flight per connection, taken from the connection's users
// (streams c, c+nconn, ...) in turn. It returns the merged tally and the wall
// time from the common start to the last completion.
func closedLoop(clients []*mtier.Client, streams []*stream, window time.Duration) (*tally, time.Duration) {
	parts := make([]tally, len(clients))
	ends := make([]time.Time, len(clients))
	t0 := time.Now()
	deadline := t0.Add(window)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t, c := &parts[i], clients[i]
			users := len(streams) / len(clients)
			for now := t0; now.Before(deadline); {
				text := streams[i+len(clients)*(int(t.sent)%users)].next()
				start := time.Now()
				resp, err := c.Query(text)
				now = time.Now()
				t.observe(outcomeOf(text, resp, err, start, now, t.sent%sampleEvery == 0), t0)
			}
			ends[i] = time.Now()
		}(i)
	}
	wg.Wait()
	total := &tally{}
	end := t0
	for i := range parts {
		total.merge(&parts[i])
		if ends[i].After(end) {
			end = ends[i]
		}
	}
	return total, end.Sub(t0)
}

// openLoop sends rate×window requests on a uniform schedule, request k from
// stream k mod len(streams) over connection k mod len(clients) (a stream
// always rides the same connection), each in its own goroutine so a slow
// answer never delays a later send. Latency runs from the scheduled instant,
// so a stall is charged to every request it held up.
func openLoop(clients []*mtier.Client, streams []*stream, window time.Duration, rate float64) (*tally, time.Duration) {
	n := int(rate * window.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	outcomes := make([]outcome, n)
	lags := make([]int64, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < n; k++ {
		text := streams[k%len(streams)].next()
		due := t0.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[k] = int64(max(time.Since(due), 0))
		wg.Add(1)
		go func(k int, c *mtier.Client) {
			defer wg.Done()
			resp, err := c.Query(text)
			outcomes[k] = outcomeOf(text, resp, err, due, time.Now(), k%sampleEvery == 0)
		}(k, clients[k%len(clients)])
	}
	wg.Wait()
	total := &tally{lag: lags}
	end := t0
	for k := range outcomes {
		total.observe(outcomes[k], t0)
		if outcomes[k].done.After(end) {
			end = outcomes[k].done
		}
	}
	return total, end.Sub(t0)
}

// oneByOne sends texts sequentially, query i over connection i mod
// len(clients), keeping every response. With a tracer it marks the request
// in flight and records the client's root span.
func oneByOne(clients []*mtier.Client, texts []string, tr *tracer) (*tally, time.Duration) {
	t := &tally{}
	t0 := time.Now()
	for i, text := range texts {
		c := clients[i%len(clients)]
		if tr != nil {
			tr.req.Store(int64(i))
		}
		var b began
		if tr != nil {
			b = tr.begin()
		}
		start := time.Now()
		resp, err := c.Query(text)
		done := time.Now()
		if tr != nil {
			tr.record(opClientQuery, b)
			tr.req.Store(-1)
		}
		t.observe(outcomeOf(text, resp, err, start, done, true), t0)
		if err == nil {
			t.lookupNS += resp.Lookup
			t.aggNS += resp.Aggregate
			t.updateNS += resp.Update
			t.backendNS += resp.Backend
		}
	}
	return t, time.Since(t0)
}
