package bench

import (
	"errors"
	"fmt"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/lattice"
	"aggcache/internal/strategy"
)

// accumulator tracks min/max/sum/count of durations — the shape of the
// paper's Tables 1 and 2 (min, max, average).
type accumulator struct {
	Min, Max, Sum time.Duration
	N             int64
}

// Observe adds one sample.
func (a *accumulator) Observe(d time.Duration) {
	if a.N == 0 || d < a.Min {
		a.Min = d
	}
	if d > a.Max {
		a.Max = d
	}
	a.Sum += d
	a.N++
}

// Avg returns the mean of the observed samples (0 if none).
func (a *accumulator) Avg() time.Duration {
	if a.N == 0 {
		return 0
	}
	return a.Sum / time.Duration(a.N)
}

// insertAll feeds every chunk of a group-by into a strategy's maintenance
// path (presence only — no payloads are needed for lookup-time and
// update-time measurements).
func (e *Env) insertAll(s strategy.Strategy, gb lattice.ID, acc *accumulator) {
	for num := 0; num < e.Grid.NumChunks(gb); num++ {
		entry := &cache.Entry{Key: cache.Key{GB: gb, Num: int32(num)}}
		start := time.Now()
		s.OnInsert(entry)
		if acc != nil {
			acc.Observe(time.Since(start))
		}
	}
}

// Table1 measures cache lookup times for ESM, ESMC, VCM and VCMC: one chunk
// per group-by, once with an empty cache and once with every base-table
// chunk cached (the paper's Table 1). Exhaustive lookups honor the
// configured budget; budget hits are reported as truncations (the paper's
// ESMC number, 19,826,592 ms, is why).
func Table1(e *Env) (*Report, error) {
	r := &Report{ID: "table1", Title: "Lookup times (ms)",
		Header: []string{"strategy", "empty min", "empty max", "empty avg", "preloaded min", "preloaded max", "preloaded avg", "truncated"}}
	lat := e.Grid.Lattice()
	for _, name := range []string{"ESM", "ESMC", "VCM", "VCMC"} {
		var cells []string
		truncTotal := 0
		for _, preloaded := range []bool{false, true} {
			s, err := e.NewStrategy(name, e.Cfg.LookupBudget)
			if err != nil {
				return nil, err
			}
			if preloaded {
				e.insertAll(s, lat.Base(), nil)
			}
			var acc accumulator
			trunc := 0
			for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
				start := time.Now()
				_, _, err := s.Find(id, 0)
				acc.Observe(time.Since(start))
				if errors.Is(err, strategy.ErrBudget) {
					trunc++
				} else if err != nil {
					return nil, err
				}
			}
			cells = append(cells, msString(acc.Min), msString(acc.Max), msString(acc.Avg()))
			truncTotal += trunc
		}
		row := append([]string{string(name)}, cells...)
		row = append(row, fmt.Sprintf("%d", truncTotal))
		r.AddRow(row...)
	}
	r.Addf("one lookup per group-by (%d group-bys); 'truncated' counts budget-capped exhaustive lookups (budget %d nodes)",
		lat.NumNodes(), e.Cfg.LookupBudget)
	r.Addf("paper shape: VCM/VCMC ≈ 0 in both scenarios; ESM explodes on an empty cache; ESMC explodes when preloaded")
	return r, nil
}

// table2Levels picks the two load levels of the paper's Table 2: the base
// level with the last dimension aggregated, then additionally the
// second-to-last — (6,2,3,1,0) and (6,2,3,0,0) on the APB schema.
func (e *Env) table2Levels() (lattice.ID, lattice.ID, error) {
	lat := e.Grid.Lattice()
	lvA := append([]int(nil), e.Grid.Schema().BaseLevel()...)
	lvA[len(lvA)-1] = 0
	lvB := append([]int(nil), lvA...)
	lvB[len(lvB)-2] = 0
	a, err := lat.IDOf(lvA)
	if err != nil {
		return 0, 0, err
	}
	b, err := lat.IDOf(lvB)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

// Table2 measures per-insert count/cost maintenance times for VCM and VCMC
// while bulk-loading two adjacent levels (the paper's Table 2).
func Table2(e *Env) (*Report, error) {
	gbA, gbB, err := e.table2Levels()
	if err != nil {
		return nil, err
	}
	lat := e.Grid.Lattice()
	r := &Report{ID: "table2", Title: fmt.Sprintf("Update times (ms) while loading %s then %s",
		lat.LevelTupleString(gbA), lat.LevelTupleString(gbB)),
		Header: []string{"strategy", "A min", "A max", "A avg", "B min", "B max", "B avg", "B updates"}}
	for _, name := range []string{"VCM", "VCMC"} {
		s, err := e.NewStrategy(name, 0)
		if err != nil {
			return nil, err
		}
		var accA, accB accumulator
		e.insertAll(s, gbA, &accA)
		before := s.Maintenance().Updates
		e.insertAll(s, gbB, &accB)
		updatesB := s.Maintenance().Updates - before
		r.AddRow(string(name),
			msString(accA.Min), msString(accA.Max), msString(accA.Avg()),
			msString(accB.Min), msString(accB.Max), msString(accB.Avg()),
			fmt.Sprintf("%d", updatesB))
	}
	r.Addf("paper shape: VCM does no work in phase B (everything already computable); VCMC still propagates cost changes")
	return r, nil
}

// Table3 reports the summary-state space overhead of each strategy with the
// paper's byte accounting (Table 3).
func Table3(e *Env) (*Report, error) {
	r := &Report{ID: "table3", Title: "Maximum space overhead",
		Header: []string{"strategy", "bytes", "vs base table"}}
	base := e.BaseBytes()
	for _, name := range []string{"ESM", "ESMC", "VCM", "VCMC"} {
		s, err := e.NewStrategy(name, 0)
		if err != nil {
			return nil, err
		}
		ov := s.Overhead()
		r.AddRow(string(name), fmt.Sprintf("%d", ov), fmt.Sprintf("%.2f%%", 100*float64(ov)/float64(base)))
	}
	r.Addf("total chunks over all %d group-bys: %d; base table ≈ %s",
		e.Grid.Lattice().NumNodes(), e.Grid.TotalChunks(), SizeLabel(base))
	r.Addf("paper: 32,256 chunks; VCM 32KB, VCMC 194KB (≈0.97%% of the base table)")
	return r, nil
}
