// Command benchmark is this repository's one performance yardstick: real
// mtier clients send mdq text over loopback TCP to the production composition
// (mtier.Server + admission, core.Engine with VCMC, recycling and the result
// cache, Peered(Tiered(sharded store)), backend.Remote, backend.Server over a
// second socket), all hosted in this process, in wall-clock time on every
// core the box has. See README.md for the workloads, the metric glossary and
// the rules; BENCHMARK.json at the repository root names the same metrics.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh                                   # all four workloads, both passes each
//	bash benchmark/run.sh -workload churn_miss,point_hit    # a subset, in this order
//	bash benchmark/run.sh -repeat 5                         # median and quartiles per metric
//	bash benchmark/run.sh -compare a.json b.json            # verdict per (metric, workload)
//	bash benchmark/run.sh -calibrate                        # suggest the open-loop rate
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # one run, driver contract
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"aggcache/internal/apb"
)

func main() {
	var (
		workloadFlag  = flag.String("workload", "", "workload name; a comma-separated list (run in that order) without -trace; empty = all")
		seedFlag      = flag.Int64("seed", 1, "stream seed; client i uses seed+i")
		secondsFlag   = flag.Int("seconds", 0, "length of the timed window in seconds (0 = BENCHMARK.json's run_seconds)")
		traceFlag     = flag.Int("trace", -1, "single run for the driver: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		scaleFlag     = flag.String("scale", "medium", "dataset scale: tiny (smoke) | small | medium | full")
		repeatFlag    = flag.Int("repeat", 1, "runs per workload, each on a fresh stack in a fresh process")
		compareFlag   = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		calibrateFlag = flag.Bool("calibrate", false, "measure closed-loop capacity of the open-loop composition and print a suggested rate")
	)
	flag.Parse()
	if err := run(*workloadFlag, *seedFlag, *secondsFlag, *traceFlag, *scaleFlag, *repeatFlag, *compareFlag, *calibrateFlag, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds, used when -seconds is not
// given.
const defaultSeconds = 20

// errIncorrect reports a run that finished but failed a shape guard or gave
// a wrong answer; its result has been printed.
var errIncorrect = errors.New("run is invalid or incorrect (see problems above)")

func run(workloadList string, seed int64, seconds, trace int, scaleName string, repeat int, compare, calibrate bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("-compare needs two result files: base.json new.json")
		}
		return compareFiles(args[0], args[1])
	}
	scale, err := apb.ParseScale(scaleName)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = defaultSeconds
	}
	length := time.Duration(seconds) * time.Second
	if calibrate {
		return calibrateRate(scale, seed, length)
	}
	specs, err := pickWorkloads(workloadList)
	if err != nil {
		return err
	}
	if trace >= 0 {
		if len(specs) != 1 {
			return errors.New("-trace runs exactly one workload")
		}
		return single(scale, specs[0], seed, length, trace)
	}
	return all(scale, specs, seed, seconds, repeat)
}

func pickWorkloads(list string) ([]workloadSpec, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workloadSpec
	for _, name := range strings.Split(list, ",") {
		w, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			var names []string
			for _, w := range workloads {
				names = append(names, w.Name)
			}
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

// outDir is where result.json and the trace files go: benchmark/out when run
// from the repository root, out/ when run from inside benchmark/.
func outDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark/out"
	}
	return "out"
}

// driverLine is the one JSON object the driver reads off the last line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportPrefix marks the line on which a single run hands its full report to
// the all-workloads parent process.
const reportPrefix = "#report "

// single is one run of one workload in this process. It prints every metric
// by name with its unit, then the full report, then the driver's line.
func single(scale apb.Scale, spec workloadSpec, seed int64, length time.Duration, trace int) error {
	rep, err := measure(scale, spec, seed, length, trace, outDir())
	if err != nil {
		return err
	}
	line := driverLine{Correct: rep.correct(), Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: map[string]driverValue{}}
	printRun(rep)
	for _, d := range allMetrics() {
		if v, ok := rep.value(d.Name); ok {
			line.Metrics[d.Name] = driverValue{v, d.Unit}
		}
	}
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", reportPrefix, full)
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !rep.correct() {
		return errIncorrect
	}
	return nil
}

// envInfo records where and how a run was made, so that "GOMAXPROCS was 1"
// is data in the result file and not a caveat in prose.
type envInfo struct {
	NProc         int     `json:"nproc"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Scale         string  `json:"scale"`
	Rows          int     `json:"rows"`
	Chunks        int64   `json:"chunks"`
	GroupBys      int     `json:"group_bys"`
	BaseBytes     int64   `json:"base_bytes"`
	Clients       int     `json:"clients"`
	WindowSeconds float64 `json:"window_seconds"`
	OpenLoopRate  float64 `json:"open_loop_rate_qps"`
	TracedQueries int     `json:"traced_queries"`
	SetupRepeats  int     `json:"setup_repeats"`
}

func envOf(ds *dataset, length time.Duration) *envInfo {
	return &envInfo{
		NProc:         runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Scale:         ds.scale.String(),
		Rows:          ds.table.Len(),
		Chunks:        ds.grid.TotalChunks(),
		GroupBys:      ds.grid.Lattice().NumNodes(),
		BaseBytes:     ds.baseBytes,
		Clients:       runtime.GOMAXPROCS(0),
		WindowSeconds: length.Seconds(),
		OpenLoopRate:  openLoopRate,
		TracedQueries: tracedQueries,
		SetupRepeats:  setupRepeats,
	}
}

// calibrateRate measures the closed-loop capacity of paper_mix_open's
// composition with nproc clients and prints half of it. It never writes the
// constant: freezing a rate is a reviewed edit of spec.go.
func calibrateRate(scale apb.Scale, seed int64, length time.Duration) error {
	spec, _ := findWorkload("paper_mix_open")
	spec.Open = false
	nproc := runtime.GOMAXPROCS(0)
	w, err := runWindow(scale, spec, seed, nproc, length)
	if err != nil {
		return err
	}
	qps := float64(w.tally.ok) / w.wall.Seconds()
	fmt.Printf("paper_mix_open composition, closed loop, %d clients, %.0f s: %.1f queries/s (p50 %.3f ms)\n",
		nproc, length.Seconds(), qps, percentile(w.tally.lat, 0.5)/1e6)
	fmt.Printf("suggested openLoopRate (50%%): %.0f queries/s; frozen value: %.0f\n", qps/2, openLoopRate)
	return nil
}
