package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// Report is one experiment's output: a headline, free-form notes, and an
// aligned table mirroring the paper's artifact.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Header and Rows render as an aligned table when non-empty.
	Header []string
	Rows   [][]string
	// Gates are the floors the experiment enforces on its own metrics;
	// cmd/aggbench exits non-zero when any of them failed.
	Gates []Gate
}

// Gate is one floor verdict: a metric checked against its threshold.
type Gate struct {
	// Name is the metric's key in the experiment's BENCH JSON.
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	// Detail shows the measured value against the threshold.
	Detail string `json:"detail"`
}

func (g Gate) String() string {
	verdict := "ok"
	if !g.OK {
		verdict = "FAIL"
	}
	return fmt.Sprintf("gate %s: %s (%s)", g.Name, verdict, g.Detail)
}

// atLeast gates got >= floor; a NaN got fails.
func atLeast(name string, got, floor float64) Gate {
	return Gate{Name: name, OK: got >= floor, Detail: fmt.Sprintf("%.4g, floor %.4g", got, floor)}
}

// atMost gates got <= ceiling; a NaN got fails.
func atMost(name string, got, ceiling float64) Gate {
	return Gate{Name: name, OK: got <= ceiling, Detail: fmt.Sprintf("%.4g, ceiling %.4g", got, ceiling)}
}

// holds gates a boolean property of the run; detail shows the values it was
// decided on.
func holds(name string, ok bool, detail string) Gate {
	return Gate{Name: name, OK: ok, Detail: detail}
}

// FailedGates returns every gate across reports that did not hold.
func FailedGates(reports []*Report) []Gate {
	var failed []Gate
	for _, r := range reports {
		for _, g := range r.Gates {
			if !g.OK {
				failed = append(failed, g)
			}
		}
	}
	return failed
}

// artifact is the header every machine-readable BENCH_N.json opens with.
type artifact struct {
	Bench     string `json:"bench"`
	Scale     string `json:"scale"`
	GoVersion string `json:"go_version"`
	Procs     int    `json:"gomaxprocs"`
	// Gates repeats the report's floor verdicts, so the file alone says
	// whether the run held them.
	Gates []Gate `json:"gates,omitempty"`
}

func newArtifact(e *Env, bench string) artifact {
	return artifact{Bench: bench, Scale: e.Cfg.Scale.String(), GoVersion: runtime.Version(), Procs: runtime.GOMAXPROCS(0)}
}

// writeArtifact writes v as indented JSON to file in the working directory
// and notes the copy in r.
func writeArtifact(r *Report, file string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %s: %w", r.ID, err)
	}
	if err := os.WriteFile(file, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %s: %w", r.ID, err)
	}
	r.Addf("machine-readable copy written to %s", file)
	return nil
}

// Addf appends a formatted note line.
func (r *Report) Addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// AddRow appends a table row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "%s\n", l)
	}
	for _, g := range r.Gates {
		fmt.Fprintf(&b, "%s\n", g)
	}
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
			b.WriteByte('\n')
		}
		writeRow(r.Header)
		sep := make([]string, len(r.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	return b.String()
}

// WriteCSV emits the report's table as CSV (header row first) for external
// plotting; reports without a table write nothing.
func (r *Report) WriteCSV(w io.Writer) error {
	if len(r.Header) == 0 {
		return nil
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return fmt.Errorf("bench: csv: %w", err)
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("bench: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
