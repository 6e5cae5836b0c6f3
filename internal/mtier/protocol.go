package mtier

import (
	"fmt"
	"math"
	"time"

	"aggcache/internal/wire"
)

// Frame types of the middle-tier client protocol (see DESIGN.md §11). It
// rides the same framing layer as the backend protocol: a query ships as
// one frame carrying the mdq text, the answer comes back as one frame
// carrying the result cells, and request ids let a client pipeline queries
// over one connection. Query failures stay in-band in the answer payload
// (Response.Err), exactly as they did before the framing swap.
const (
	frameQuery  uint8 = 0x10
	frameAnswer uint8 = 0x90
)

// Response flag bits in the answer payload.
const (
	respCompleteHit uint8 = 1 << 0
	respAggregated  uint8 = 1 << 1
	respDegraded    uint8 = 1 << 2
)

// encodeQuery appends a frameQuery payload:
//
//	query str [| tenant str | budget_ms u32]
//
// The tenant/budget tail was added with admission control. Compatibility is
// tolerant in both directions: an old decoder reads only the query string
// and ignores trailing bytes, and a new decoder treats an absent tail as an
// anonymous query with no deadline budget.
func encodeQuery(b []byte, query, tenant string, budget time.Duration) []byte {
	b = wire.AppendString(b, query)
	ms := budget.Milliseconds()
	if budget > 0 && ms < 1 {
		// 0 on the wire means "no deadline": a sub-millisecond budget must
		// still arrive as a deadline, the tightest one the field can carry.
		ms = 1
	}
	if ms < 0 {
		ms = 0
	}
	if ms > math.MaxUint32 {
		ms = math.MaxUint32
	}
	b = wire.AppendString(b, tenant)
	return wire.AppendU32(b, uint32(ms))
}

// decodeQuery parses a frameQuery payload, with or without the
// tenant/budget tail.
func decodeQuery(p []byte) (query, tenant string, budget time.Duration, err error) {
	d := wire.NewDec(p)
	query = d.String()
	if d.Err() == nil && d.Remaining() > 0 {
		tenant = d.String()
		budget = time.Duration(d.U32()) * time.Millisecond
	}
	if d.Err() != nil {
		return "", "", 0, fmt.Errorf("mtier: malformed query payload")
	}
	return query, tenant, budget, nil
}

// encodeResponse appends a frameAnswer payload:
// flags u8 | agg str | err str | breakdown u64×4 | nlevels u32 | level strs |
// ncells u32 | cells (nmembers u32, members u32×n, value f64, sum f64,
// count u64).
func encodeResponse(b []byte, r *Response) []byte {
	var flags uint8
	if r.CompleteHit {
		flags |= respCompleteHit
	}
	if r.Aggregated {
		flags |= respAggregated
	}
	if r.Degraded {
		flags |= respDegraded
	}
	b = wire.AppendU8(b, flags)
	b = wire.AppendString(b, r.Agg)
	b = wire.AppendString(b, r.Err)
	b = wire.AppendU64(b, uint64(r.Lookup))
	b = wire.AppendU64(b, uint64(r.Aggregate))
	b = wire.AppendU64(b, uint64(r.Update))
	b = wire.AppendU64(b, uint64(r.Backend))
	b = wire.AppendU32(b, uint32(len(r.Levels)))
	for _, l := range r.Levels {
		b = wire.AppendString(b, l)
	}
	b = wire.AppendU32(b, uint32(len(r.Cells)))
	for i := range r.Cells {
		c := &r.Cells[i]
		b = wire.AppendU32(b, uint32(len(c.Members)))
		for _, m := range c.Members {
			b = wire.AppendU32(b, uint32(m))
		}
		b = wire.AppendF64(b, c.Value)
		b = wire.AppendF64(b, c.Sum)
		b = wire.AppendU64(b, uint64(c.Count))
	}
	return b
}

// decodeResponse parses a frameAnswer payload.
func decodeResponse(p []byte) (*Response, error) {
	d := wire.NewDec(p)
	flags := d.U8()
	if flags&^(respCompleteHit|respAggregated|respDegraded) != 0 {
		return nil, fmt.Errorf("mtier: malformed answer payload")
	}
	r := &Response{
		Agg:         d.String(),
		Err:         d.String(),
		CompleteHit: flags&respCompleteHit != 0,
		Aggregated:  flags&respAggregated != 0,
		Degraded:    flags&respDegraded != 0,
	}
	r.Lookup = int64(d.U64())
	r.Aggregate = int64(d.U64())
	r.Update = int64(d.U64())
	r.Backend = int64(d.U64())
	nlv := int(d.U32())
	if d.Err() != nil || nlv > d.Remaining()/4 {
		return nil, fmt.Errorf("mtier: malformed answer payload")
	}
	for i := 0; i < nlv; i++ {
		r.Levels = append(r.Levels, d.String())
	}
	nc := int(d.U32())
	if d.Err() != nil || nc > d.Remaining()/28 {
		return nil, fmt.Errorf("mtier: malformed answer payload")
	}
	if nc > 0 {
		r.Cells = make([]Cell, 0, nc)
	}
	for i := 0; i < nc; i++ {
		nm := int(d.U32())
		if d.Err() != nil || nm > d.Remaining()/4 {
			return nil, fmt.Errorf("mtier: malformed answer payload")
		}
		c := Cell{Members: make([]int32, nm)}
		for j := range c.Members {
			c.Members[j] = int32(d.U32())
		}
		c.Value = d.F64()
		c.Sum = d.F64()
		c.Count = int64(d.U64())
		r.Cells = append(r.Cells, c)
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("mtier: malformed answer payload")
	}
	return r, nil
}
