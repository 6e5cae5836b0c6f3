package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"aggcache/internal/apb"
)

// envelope is benchmark/out/result.json: every run of one invocation, the
// environment they ran in, and a per-metric summary.
type envelope struct {
	Benchmark string `json:"benchmark"`
	// Claim is null: the change that defines the benchmark claims no gain.
	Claim  *string  `json:"claim"`
	Commit string   `json:"commit"`
	Seed   int64    `json:"seed"`
	Repeat int      `json:"repeat"`
	Env    *envInfo `json:"env"`
	// Units maps every metric name to its unit.
	Units map[string]string `json:"units"`
	// Runs holds one report per (workload, repetition), in run order.
	Runs []*report `json:"runs"`
	// Summary is median and quartiles per workload and metric over the runs.
	Summary map[string]map[string]quartiles `json:"summary"`
}

type quartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// all runs every listed workload repeat times, each run in a fresh child
// process (so peak RSS, CPU time and runtime counters belong to that run
// alone), prints the metrics and writes result.json.
func all(scale apb.Scale, specs []workloadSpec, seed int64, seconds, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := &envelope{
		Benchmark: "aggcache end-to-end: mdq over TCP through mtier, engine, store tiers, peers, remote backend",
		Commit:    gitCommit(),
		Seed:      seed,
		Repeat:    repeat,
		Units:     map[string]string{},
	}
	for _, d := range allMetrics() {
		env.Units[d.Name] = d.Unit
	}
	bad := false
	for _, spec := range specs {
		for r := 0; r < repeat; r++ {
			fmt.Printf("== %s (run %d of %d)\n", spec.Name, r+1, repeat)
			cmd := exec.Command(self,
				"-workload", spec.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "2", "-scale", scale.String())
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			rep, perr := parseReport(out)
			if perr != nil {
				if runErr != nil {
					return fmt.Errorf("%s: %w", spec.Name, runErr)
				}
				return fmt.Errorf("%s: %w", spec.Name, perr)
			}
			if repeat == 1 {
				printRun(rep)
			} else {
				printProblems(rep)
			}
			bad = bad || !rep.correct()
			if env.Env == nil {
				env.Env = rep.Env
			}
			rep.Env = nil
			env.Runs = append(env.Runs, rep)
		}
	}
	env.Summary = summarize(env.Runs)
	if repeat > 1 {
		printSummary(specs, env.Summary)
	}
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if bad {
		return errIncorrect
	}
	return nil
}

// parseReport finds the full report a single run printed.
func parseReport(out []byte) (*report, error) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), reportPrefix); ok {
			rep := &report{}
			if err := json.Unmarshal([]byte(rest), rep); err != nil {
				return nil, err
			}
			return rep, nil
		}
	}
	return nil, fmt.Errorf("run printed no report")
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// allMetrics lists the end-to-end metrics, then the per-layer ones.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// value looks a metric up in whichever of the report's two maps has it.
func (r *report) value(name string) (float64, bool) {
	if v, ok := r.E2E[name]; ok {
		return v, true
	}
	v, ok := r.Layers[name]
	return v, ok
}

// printRun prints every metric the run measured by name with its unit, then
// its problems, if any.
func printRun(rep *report) {
	for _, d := range allMetrics() {
		if v, ok := rep.value(d.Name); ok {
			fmt.Printf("%-14s %-36s %16.6f %s\n", rep.Workload, d.Name, v, d.Unit)
		}
	}
	printProblems(rep)
	fmt.Printf("%-14s took %.1f s\n", rep.Workload, rep.WallSeconds)
}

func printProblems(rep *report) {
	for _, p := range rep.Problems {
		fmt.Printf("%-14s PROBLEM %s\n", rep.Workload, p)
	}
}

func summarize(runs []*report) map[string]map[string]quartiles {
	vals := map[string]map[string][]float64{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for _, m := range []map[string]float64{r.E2E, r.Layers} {
			for name, v := range m {
				vals[r.Workload][name] = append(vals[r.Workload][name], v)
			}
		}
	}
	out := map[string]map[string]quartiles{}
	for w, ms := range vals {
		out[w] = map[string]quartiles{}
		for name, xs := range ms {
			out[w][name] = quartilesOf(xs)
		}
	}
	return out
}

func printSummary(specs []workloadSpec, sum map[string]map[string]quartiles) {
	fmt.Printf("%-14s %-36s %14s %14s %14s %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, spec := range specs {
		for _, d := range allMetrics() {
			q := sum[spec.Name][d.Name]
			fmt.Printf("%-14s %-36s %14.6f %14.6f %14.6f %s\n", spec.Name, d.Name, q.Median, q.Q1, q.Q3, d.Unit)
		}
	}
}

// quartilesOf matches Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the driver's spread check uses. Fewer
// than two values have no spread: the quartiles collapse onto the median.
func quartilesOf(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles{Median: median(s), N: len(s)}
	q.Q1, q.Q3 = q.Median, q.Median
	if len(s) < 2 {
		return q
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	q.Q1, q.Q3 = cut(1), cut(3)
	return q
}

// compareFiles applies the end-to-end bounds to two result files and prints
// one row per (metric, workload): improved, within bound, regressed, or
// unresolved when the base's own run-to-run spread is wider than the bound.
// Every ratio is given with its base.
func compareFiles(basePath, newPath string) error {
	base, err := readEnvelope(basePath)
	if err != nil {
		return err
	}
	cand, err := readEnvelope(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("base %s (commit %s, %d run(s)/workload)  new %s (commit %s, %d run(s)/workload)\n",
		basePath, base.Commit, base.Repeat, newPath, cand.Commit, cand.Repeat)
	fmt.Printf("%-14s %-26s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	failed := false
	for _, spec := range workloads {
		bs, ok1 := base.Summary[spec.Name]
		cs, ok2 := cand.Summary[spec.Name]
		if !ok1 || !ok2 {
			continue
		}
		for _, d := range endToEnd {
			b, c := bs[d.Name], cs[d.Name]
			verdict, ratio, spread := judge(d, b, c)
			if verdict == "regressed" || verdict == "unresolved" {
				failed = true
			}
			fmt.Printf("%-14s %-26s %14.6f %14.6f %8.4f %7.4f %7.4f  %s\n",
				spec.Name, d.Name, b.Median, c.Median, ratio, spread, d.Bound, verdict)
		}
	}
	if failed {
		return fmt.Errorf("at least one (metric, workload) regressed or is unresolved")
	}
	return nil
}

// judge compares one metric's medians. worse is the share of the base median
// by which the new median is worse (negative when better).
func judge(d metricDef, base, cand quartiles) (verdict string, ratio, spread float64) {
	if base.Median == 0 {
		return "unresolved", math.NaN(), math.NaN()
	}
	ratio = cand.Median / base.Median
	spread = (base.Q3 - base.Q1) / math.Abs(base.Median)
	worse := ratio - 1
	if d.Better == higher {
		worse = 1 - ratio
	}
	switch {
	case spread > d.Bound:
		return "unresolved", ratio, spread
	case worse > d.Bound:
		return "regressed", ratio, spread
	case -worse > math.Max(spread, 1e-12) && base.N > 1:
		return "improved", ratio, spread
	}
	return "within bound", ratio, spread
}

func readEnvelope(path string) (*envelope, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	env := &envelope{}
	if err := json.Unmarshal(b, env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return env, nil
}
