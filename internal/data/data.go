// Package data holds fact tables and the synthetic data generator used by
// the experiments. The generator follows the shape of the APB-1 benchmark
// generator (OLAP Council): a set of active dimension-member combinations,
// each of which produces measure rows for a density-controlled subset of the
// time members.
package data

import (
	"fmt"
	"math/rand"

	"aggcache/internal/schema"
)

// Table is a column-oriented fact table at the base level of a schema: one
// member id per dimension per row plus one measure value.
type Table struct {
	sch     *schema.Schema
	nd      int
	members []int32 // row-major: row i occupies members[i*nd : (i+1)*nd]
	values  []float64
}

// NewTable returns an empty fact table for the schema.
func NewTable(sch *schema.Schema) *Table {
	return &Table{sch: sch, nd: sch.NumDims()}
}

// Schema returns the table's schema.
func (t *Table) Schema() *schema.Schema { return t.sch }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.values) }

// Row returns the member ids of row i. The slice aliases the table; do not
// modify.
func (t *Table) Row(i int) []int32 { return t.members[i*t.nd : (i+1)*t.nd] }

// Value returns the measure of row i.
func (t *Table) Value(i int) float64 { return t.values[i] }

// Append adds a row. members must have one entry per dimension; it is
// copied.
func (t *Table) Append(members []int32, value float64) {
	if len(members) != t.nd {
		panic(fmt.Sprintf("data: row has %d members, want %d", len(members), t.nd))
	}
	t.members = append(t.members, members...)
	t.values = append(t.values, value)
}

// Params configures the synthetic generator.
type Params struct {
	// Rows is the target number of fact rows; the generated count is close
	// to but not exactly Rows (density sampling is stochastic).
	Rows int
	// Density is the probability that an active combination has data for a
	// given time member (APB-1's "data density"; the paper uses 0.7).
	Density float64
	// TimeDim is the index of the time dimension; -1 samples full cells
	// uniformly instead of using the combination/density model.
	TimeDim int
	// Seed seeds the deterministic generator.
	Seed int64
	// MaxValue bounds the generated measure values (exclusive); defaults to
	// 100.
	MaxValue float64
}

// Generate builds a synthetic fact table over the base level of sch.
func Generate(sch *schema.Schema, p Params) (*Table, error) {
	if p.Rows <= 0 {
		return nil, fmt.Errorf("data: Rows must be positive, got %d", p.Rows)
	}
	if p.TimeDim >= sch.NumDims() {
		return nil, fmt.Errorf("data: TimeDim %d outside schema with %d dimensions", p.TimeDim, sch.NumDims())
	}
	if p.TimeDim >= 0 && (p.Density <= 0 || p.Density > 1) {
		return nil, fmt.Errorf("data: Density must be in (0,1], got %v", p.Density)
	}
	maxV := p.MaxValue
	if maxV <= 0 {
		maxV = 100
	}
	rng := rand.New(rand.NewSource(p.Seed))
	t := NewTable(sch)
	nd := sch.NumDims()
	baseCard := make([]int, nd)
	for d := 0; d < nd; d++ {
		dim := sch.Dim(d)
		baseCard[d] = dim.Card(dim.Hierarchy())
	}
	row := make([]int32, nd)

	if p.TimeDim < 0 {
		// Uniform cell sampling with deduplication.
		if total := crossProduct(baseCard, nil); total >= 0 && int64(p.Rows) > total {
			return nil, fmt.Errorf("data: Rows %d exceeds the %d distinct base cells", p.Rows, total)
		}
		seen := make(map[string]bool, p.Rows)
		buf := make([]byte, nd*4)
		for t.Len() < p.Rows {
			for d := 0; d < nd; d++ {
				row[d] = int32(rng.Intn(baseCard[d]))
			}
			k := cellKeyString(buf, row)
			if seen[k] {
				continue
			}
			seen[k] = true
			t.Append(row, 1+rng.Float64()*(maxV-1))
		}
		return t, nil
	}

	// Combination/density model: pick distinct non-time combinations, each
	// emitting one row per time member with probability Density.
	months := baseCard[p.TimeDim]
	perCombo := float64(months) * p.Density
	combos := int(float64(p.Rows)/perCombo + 0.5)
	if combos < 1 {
		combos = 1
	}
	// Never ask for more distinct combinations than the non-time dimensions
	// can provide, or the dedup loop would never finish.
	if max := crossProduct(baseCard, &p.TimeDim); max >= 0 && int64(combos) > max {
		combos = int(max)
	}
	seen := make(map[string]bool, combos)
	buf := make([]byte, nd*4)
	for c := 0; c < combos; {
		for d := 0; d < nd; d++ {
			if d == p.TimeDim {
				row[d] = 0
			} else {
				row[d] = int32(rng.Intn(baseCard[d]))
			}
		}
		k := cellKeyString(buf, row)
		if seen[k] {
			continue
		}
		seen[k] = true
		c++
		emitted := false
		for m := 0; m < months; m++ {
			if rng.Float64() < p.Density {
				row[p.TimeDim] = int32(m)
				t.Append(row, 1+rng.Float64()*(maxV-1))
				emitted = true
			}
		}
		if !emitted {
			// Guarantee every active combination contributes at least one
			// row so the row count tracks the target.
			row[p.TimeDim] = int32(rng.Intn(months))
			t.Append(row, 1+rng.Float64()*(maxV-1))
		}
	}
	return t, nil
}

// crossProduct returns the product of base cardinalities, skipping *skip if
// non-nil. It returns -1 on overflow (effectively unbounded).
func crossProduct(cards []int, skip *int) int64 {
	total := int64(1)
	for d, c := range cards {
		if skip != nil && d == *skip {
			continue
		}
		total *= int64(c)
		if total < 0 || total > 1<<50 {
			return -1
		}
	}
	return total
}

func cellKeyString(buf []byte, row []int32) string {
	buf = buf[:0]
	for _, m := range row {
		buf = append(buf, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	return string(buf)
}
