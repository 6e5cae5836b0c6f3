package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/mdq"
	"aggcache/internal/mtier"
	"aggcache/internal/strategy"
)

// oracle answers queries the way a middle tier with no aggregate awareness
// would: a second engine with the NoAgg strategy, a private single-lock
// store and a zero-latency in-process backend. Nothing it runs is shared
// with the stack under test except the dataset, so an answer both agree on
// did not come from a shared bug in lookup, roll-up, recycling, the result
// cache, the tiers, the peers or the wire.
type oracle struct {
	ds  *dataset
	eng *core.Engine
}

func newOracle(ds *dataset) (*oracle, error) {
	be, err := backend.NewEngine(ds.grid, ds.table, backend.LatencyModel{})
	if err != nil {
		return nil, err
	}
	store, err := cache.New(ds.baseBytes, cache.NewTwoLevel())
	if err != nil {
		return nil, err
	}
	eng, err := core.New(ds.grid, store, strategy.NewNoAgg(ds.grid), be, ds.sizes)
	if err != nil {
		return nil, err
	}
	return &oracle{ds: ds, eng: eng}, nil
}

type cellValue struct {
	sum   float64
	count int64
}

// check compares one response cell for cell with the oracle's answer:
// members and counts exactly, sums within 1e-9 relative.
func (o *oracle) check(text string, resp *mtier.Response) error {
	q, _, err := mdq.Compile(text, o.ds.grid)
	if err != nil {
		return fmt.Errorf("oracle: compile %q: %w", text, err)
	}
	res, err := o.eng.Execute(context.Background(), q)
	if err != nil {
		return fmt.Errorf("oracle: execute %q: %w", text, err)
	}
	want := make(map[string]cellValue, len(resp.Cells))
	var members []int32
	var key []byte
	for _, c := range res.Chunks {
		for i, k := range c.Keys {
			members = o.ds.grid.CellMembers(c.GB, int(c.Num), k, members[:0])
			count := int64(1)
			if c.Counts != nil {
				count = c.Counts[i]
			}
			key = memberKey(key[:0], members)
			want[string(key)] = cellValue{c.Vals[i], count}
		}
	}
	if len(resp.Cells) != len(want) {
		return fmt.Errorf("%q: %d cells, oracle has %d", text, len(resp.Cells), len(want))
	}
	for _, c := range resp.Cells {
		key = memberKey(key[:0], c.Members)
		w, ok := want[string(key)]
		if !ok {
			return fmt.Errorf("%q: cell %v is not in the oracle's answer", text, c.Members)
		}
		if c.Count != w.count {
			return fmt.Errorf("%q: cell %v count %d, oracle %d", text, c.Members, c.Count, w.count)
		}
		if d := math.Abs(c.Sum - w.sum); d > 1e-9*math.Max(math.Abs(w.sum), 1) {
			return fmt.Errorf("%q: cell %v sum %v, oracle %v", text, c.Members, c.Sum, w.sum)
		}
		// Matched cells leave the map, so a duplicated cell cannot stand in
		// for a missing one.
		delete(want, string(key))
	}
	return nil
}

func memberKey(dst []byte, members []int32) []byte {
	for _, m := range members {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m))
	}
	return dst
}

// checkAll returns the number of wrong answers among kept responses and the
// first mismatch, for the log.
func (o *oracle) checkAll(checks []checked) (wrong int64, first error) {
	for _, c := range checks {
		if err := o.check(c.text, c.resp); err != nil {
			wrong++
			if first == nil {
				first = err
			}
		}
	}
	return wrong, first
}
