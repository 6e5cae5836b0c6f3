package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/lattice"
)

// Lemma2 measures VCM maintenance against the paper's bound: inserting a
// chunk at level (l_1..l_n) updates at most n·Π(l_i+1) counts.
func Lemma2(e *Env) (*Report, error) {
	s, err := e.NewStrategy("VCM", 0)
	if err != nil {
		return nil, err
	}
	lat := e.Grid.Lattice()
	rng := rand.New(rand.NewSource(e.Cfg.Seed + 2))
	n := int64(lat.NumDims())
	worstRatio := 0.0
	var worstAt string
	inserts := 400
	resident := map[cache.Key]bool{}
	for i := 0; i < inserts; i++ {
		gb := lattice.ID(rng.Intn(lat.NumNodes()))
		num := rng.Intn(e.Grid.NumChunks(gb))
		k := cache.Key{GB: gb, Num: int32(num)}
		if resident[k] {
			continue
		}
		resident[k] = true
		before := s.Maintenance().Updates
		start := time.Now()
		s.OnInsert(&cache.Entry{Key: k})
		_ = time.Since(start)
		updates := s.Maintenance().Updates - before
		bound := n * int64(lat.Descendants(gb))
		if updates > bound {
			return nil, fmt.Errorf("bench: Lemma 2 violated at %s: %d updates > bound %d",
				lat.LevelTupleString(gb), updates, bound)
		}
		if ratio := float64(updates) / float64(bound); ratio > worstRatio {
			worstRatio = ratio
			worstAt = lat.LevelTupleString(gb)
		}
	}
	r := &Report{ID: "lemma2", Title: "VCM insert maintenance vs Lemma 2 bound"}
	r.Addf("%d random inserts: every insert within the n·Π(l_i+1) bound", len(resident))
	r.Addf("tightest case: %.0f%% of the bound at %s", worstRatio*100, worstAt)
	return r, nil
}

// experiments maps experiment ids to their runners, in presentation order.
var experiments = []struct {
	id  string
	run func(e *Env) ([]*Report, error)
}{
	{"unit-aggbenefit", one(UnitAggBenefit)},
	{"unit-costvar", one(UnitCostVar)},
	{"table1", one(Table1)},
	{"table2", one(Table2)},
	{"table3", one(Table3)},
	{"fig7", func(e *Env) ([]*Report, error) { a, b, err := Fig7And8(e); return []*Report{a, b}, err }},
	{"fig9", one(Fig9)},
	{"fig10", func(e *Env) ([]*Report, error) { a, b, err := Fig10AndTable4(e); return []*Report{a, b}, err }},
	{"ablate", one(Ablations)},
	{"mix-sweep", one(MixSweep)},
	{"chunk-sweep", one(ChunkSizeSweep)},
	{"lemma1", one(Lemma1)},
	{"lemma2", one(Lemma2)},
	{"chaos", one(Chaos)},
	{"cluster", one(Cluster)},
	{"overload", one(Overload)},
	{"recycle", one(Recycle)},
	{"tiered", one(Tiered)},
}

// aliases maps alternative ids (artifacts that share a runner) to canonical
// ids.
var aliases = map[string]string{
	"fig8":   "fig7",
	"table4": "fig10",
}

func one(f func(e *Env) (*Report, error)) func(e *Env) ([]*Report, error) {
	return func(e *Env) ([]*Report, error) {
		r, err := f(e)
		if err != nil {
			return nil, err
		}
		return []*Report{r}, nil
	}
}

// IDs returns all experiment ids in order, including aliases.
func IDs() []string {
	out := make([]string, 0, len(experiments)+len(aliases))
	for _, ex := range experiments {
		out = append(out, ex.id)
	}
	for a := range aliases {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id ("all" runs everything in
// order).
func Run(e *Env, id string) ([]*Report, error) {
	if id == "all" {
		var all []*Report
		for _, ex := range experiments {
			rs, err := ex.run(e)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", ex.id, err)
			}
			all = append(all, rs...)
		}
		return all, nil
	}
	if canon, ok := aliases[id]; ok {
		id = canon
	}
	for _, ex := range experiments {
		if ex.id == id {
			rs, err := ex.run(e)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", ex.id, err)
			}
			return rs, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (want one of %v or all)", id, IDs())
}
