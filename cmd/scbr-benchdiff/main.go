// Command scbr-benchdiff compares two benchmark artifacts from this
// repository's CI and reports per-variant metric deltas, with an
// optional regression gate driving the exit code.
//
// Two artifact shapes are understood, and either side may be either:
//
//   - microbenchmark wraps ("lines": raw `go test -bench` output, as in
//     BENCH_pr5.json / BENCH_pr7.json) — variants are the benchmark
//     sub-names, metrics are the reported units (ns/op, simµs/op,
//     allocs/op, B/op, ns/event, ...);
//   - loadgen reports ("cells", as in BENCH_pr6.json and the
//     scbr-loadgen output) — variants name the cell (scenario,
//     partitions, scheme, routers, scale), metrics are throughput and
//     latency percentiles.
//
// Only metrics present under the same variant name in both artifacts
// are compared; artifacts with no overlap (a loadgen report against a
// microbenchmark wrap) report that and exit 0, so a stacked CI can diff
// against every prior artifact without caring which harness produced
// it.
//
// Exit status: 0 = compared (or nothing comparable) within thresholds;
// 1 = at least one gated regression; 2 = usage or artifact error.
//
// Usage:
//
//	scbr-benchdiff [-threshold pct] [-allocs-threshold pct] [-drift-threshold pct] old.json new.json
//	scbr-benchdiff -history [artifact.json ...]
//
// -threshold gates every lower-is-better metric except allocs/op;
// -allocs-threshold gates allocs/op alone (the allocation-regression
// gate the CI bench job uses); -drift-threshold gates the absolute
// change of every metric in either direction — the gate for
// deterministic artifacts (the paging-cliff sweep) where any delta
// means behaviour changed, not that a runner was noisy. A zero or
// negative threshold disables that gate; all default to off, making
// the tool report-only.
//
// -history chains a whole artifact sequence instead of diffing a pair:
// given artifact paths (default: ./BENCH_pr*.json, ordered by PR
// number), it prints each variant's per-metric trajectory across every
// artifact that carries it, with the step-to-step change. Always exits
// 0 — trajectories are for reading, the pairwise gates are for CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// artifact is the superset of the two artifact shapes; exactly one of
// Lines and Cells is populated in practice.
type artifact struct {
	Commit string `json:"commit"`
	Lines  []string
	Cells  []json.RawMessage
}

// metrics maps variant name → metric name → value.
type metrics map[string]map[string]float64

func main() {
	threshold := flag.Float64("threshold", 0, "max allowed regression percent on lower-is-better metrics other than allocs/op (<=0 disables)")
	allocsThreshold := flag.Float64("allocs-threshold", 0, "max allowed regression percent on allocs/op (<=0 disables)")
	driftThreshold := flag.Float64("drift-threshold", 0, "max allowed absolute change percent on every metric, either direction — for deterministic artifacts where any delta is a break (<=0 disables)")
	history := flag.Bool("history", false, "print per-metric trajectories across a whole artifact chain instead of diffing a pair")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: scbr-benchdiff [flags] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *history {
		if err := printHistory(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "scbr-benchdiff: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldM, oldName, err := loadMetrics(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "scbr-benchdiff: %v\n", err)
		os.Exit(2)
	}
	newM, newName, err := loadMetrics(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "scbr-benchdiff: %v\n", err)
		os.Exit(2)
	}
	regressions := diff(os.Stdout, oldM, newM, oldName, newName, *threshold, *allocsThreshold, *driftThreshold)
	if regressions > 0 {
		fmt.Printf("FAIL: %d gated regression(s)\n", regressions)
		os.Exit(1)
	}
}

// loadMetrics reads one artifact and flattens it to variant → metric →
// value. The second return is a short label for the report header.
func loadMetrics(path string) (metrics, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	label := path
	if a.Commit != "" {
		label = fmt.Sprintf("%s (%s)", path, a.Commit)
	}
	m := metrics{}
	for _, line := range a.Lines {
		name, vals, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		m[name] = vals
	}
	for _, cell := range a.Cells {
		name, vals, err := parseCell(cell)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", path, err)
		}
		m[name] = vals
	}
	if len(m) == 0 {
		return nil, "", fmt.Errorf("%s: no benchmark lines or loadgen cells found", path)
	}
	return m, label, nil
}

// parseBenchLine extracts the variant name and (unit → value) metrics
// from one `go test -bench` output line; ok is false for non-benchmark
// lines (goos:, PASS, ok, ...).
func parseBenchLine(line string) (string, map[string]float64, bool) {
	fields := strings.Split(line, "\t")
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := strings.TrimSpace(fields[0])
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[i+1:] // drop the top-level benchmark function name
	}
	vals := make(map[string]float64, len(fields)-2)
	for _, f := range fields[2:] { // fields[1] is the iteration count
		parts := strings.Fields(f)
		if len(parts) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			continue
		}
		vals[parts[1]] = v
	}
	if len(vals) == 0 {
		return "", nil, false
	}
	return name, vals, true
}

// loadgenCell is the slice of a loadgen cell record this tool compares.
type loadgenCell struct {
	Scenario   string  `json:"scenario"` // absent in today's reports; keyed blank
	Partitions int     `json:"partitions"`
	Scheme     string  `json:"scheme"`
	Routers    int     `json:"routers"`
	Scale      float64 `json:"scale"`
	RegPerSec  float64 `json:"register_per_sec"`
	// The offered rate (events over the publish calls' wall time) was
	// events_per_sec until loadgen split it from the through-drain
	// rate; committed artifacts from before the split (BENCH_pr6.json)
	// still carry the old key.
	OfferedPerSec    float64 `json:"offered_events_per_sec"`
	OfferedPerSecOld float64 `json:"events_per_sec"`
	DrainedPerSec    float64 `json:"drained_events_per_sec"`
	EndToEnd         struct {
		P50  float64 `json:"p50_ns"`
		P95  float64 `json:"p95_ns"`
		P99  float64 `json:"p99_ns"`
		Mean float64 `json:"mean_ns"`
	} `json:"end_to_end"`
	EnqueueWrite struct {
		P50 float64 `json:"p50_ns"`
		P95 float64 `json:"p95_ns"`
	} `json:"enqueue_write"`
}

func parseCell(raw json.RawMessage) (string, map[string]float64, error) {
	var c loadgenCell
	if err := json.Unmarshal(raw, &c); err != nil {
		return "", nil, fmt.Errorf("decoding loadgen cell: %w", err)
	}
	name := fmt.Sprintf("partitions=%d/scheme=%s/routers=%d/scale=%g", c.Partitions, c.Scheme, c.Routers, c.Scale)
	if c.Scenario != "" {
		name = c.Scenario + "/" + name
	}
	vals := map[string]float64{
		"register/sec":       c.RegPerSec,
		"offered-events/sec": max(c.OfferedPerSec, c.OfferedPerSecOld),
		"e2e-p50-ns":         c.EndToEnd.P50,
		"e2e-p95-ns":         c.EndToEnd.P95,
		"e2e-p99-ns":         c.EndToEnd.P99,
		"enq-write-p50-ns":   c.EnqueueWrite.P50,
	}
	if c.DrainedPerSec > 0 {
		vals["drained-events/sec"] = c.DrainedPerSec
	}
	return name, vals, nil
}

// lowerIsBetter classifies a metric's direction; metrics that are
// neither (fwd/op, a count) are reported but never gated. The cliff
// metrics are higher-is-better: a later paging cliff means a denser
// store under the same EPC budget.
func lowerIsBetter(metric string) bool {
	switch metric {
	case "register/sec", "offered-events/sec", "drained-events/sec", "fwd/op",
		"cliff-subs", "cliff-db-mb", "cliff-shift":
		return false
	}
	return true
}

// diff prints the per-variant comparison and returns the number of
// gated regressions.
func diff(w io.Writer, oldM, newM metrics, oldName, newName string, threshold, allocsThreshold, driftThreshold float64) int {
	fmt.Fprintf(w, "old: %s\nnew: %s\n", oldName, newName)
	variants := make([]string, 0, len(newM))
	for v := range newM {
		if _, ok := oldM[v]; ok {
			variants = append(variants, v)
		}
	}
	if len(variants) == 0 {
		fmt.Fprintln(w, "no overlapping variants (different harnesses or scenarios); nothing to compare")
		return 0
	}
	sort.Strings(variants)
	regressions := 0
	for _, v := range variants {
		fmt.Fprintf(w, "%s\n", v)
		names := make([]string, 0, len(newM[v]))
		for metric := range newM[v] {
			if _, ok := oldM[v][metric]; ok {
				names = append(names, metric)
			}
		}
		sort.Strings(names)
		for _, metric := range names {
			oldV, newV := oldM[v][metric], newM[v][metric]
			var pct float64
			if oldV != 0 {
				pct = (newV - oldV) / oldV * 100
			}
			gate := threshold
			if metric == "allocs/op" {
				gate = allocsThreshold
			}
			flagStr := ""
			switch {
			case lowerIsBetter(metric) && gate > 0 && pct > gate:
				flagStr = fmt.Sprintf("  REGRESSION (> %+.1f%%)", gate)
				regressions++
			case driftThreshold > 0 && (pct > driftThreshold || pct < -driftThreshold):
				flagStr = fmt.Sprintf("  DRIFT (|Δ| > %.1f%%)", driftThreshold)
				regressions++
			}
			fmt.Fprintf(w, "  %-16s %14.2f -> %14.2f  %+7.2f%%%s\n", metric, oldV, newV, pct, flagStr)
		}
	}
	return regressions
}

// printHistory loads a whole artifact chain and prints each variant's
// per-metric trajectory across every artifact that carries it.
func printHistory(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		var err error
		paths, err = filepath.Glob("BENCH_pr*.json")
		if err != nil {
			return err
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("-history: no artifacts given and no BENCH_pr*.json here")
	}
	sort.SliceStable(paths, func(i, j int) bool {
		ni, nj := artifactSeq(paths[i]), artifactSeq(paths[j])
		if ni != nj {
			return ni < nj
		}
		return paths[i] < paths[j]
	})
	type entry struct {
		label string
		m     metrics
	}
	entries := make([]entry, 0, len(paths))
	labels := make([]string, 0, len(paths))
	variantSet := map[string]bool{}
	for _, p := range paths {
		m, _, err := loadMetrics(p)
		if err != nil {
			return err
		}
		label := strings.TrimSuffix(filepath.Base(p), ".json")
		label = strings.TrimPrefix(label, "BENCH_")
		entries = append(entries, entry{label: label, m: m})
		labels = append(labels, label)
		for v := range m {
			variantSet[v] = true
		}
	}
	fmt.Fprintf(w, "history across %d artifacts: %s\n", len(entries), strings.Join(labels, " -> "))

	variants := make([]string, 0, len(variantSet))
	for v := range variantSet {
		variants = append(variants, v)
	}
	sort.Strings(variants)
	for _, v := range variants {
		metricSet := map[string]bool{}
		for _, e := range entries {
			for metric := range e.m[v] {
				metricSet[metric] = true
			}
		}
		names := make([]string, 0, len(metricSet))
		for metric := range metricSet {
			names = append(names, metric)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "%s\n", v)
		for _, metric := range names {
			parts := make([]string, 0, len(entries))
			prev, havePrev := 0.0, false
			for _, e := range entries {
				val, ok := e.m[v][metric]
				if !ok {
					continue
				}
				switch {
				case !havePrev:
					parts = append(parts, fmt.Sprintf("%s %.2f", e.label, val))
				case prev != 0:
					parts = append(parts, fmt.Sprintf("%s %.2f (%+.1f%%)", e.label, val, (val-prev)/prev*100))
				default:
					parts = append(parts, fmt.Sprintf("%s %.2f", e.label, val))
				}
				prev, havePrev = val, true
			}
			fmt.Fprintf(w, "  %-16s %s\n", metric, strings.Join(parts, " -> "))
		}
	}
	return nil
}

// artifactSeq extracts the PR sequence number from an artifact
// filename (BENCH_pr7.json -> 7); unnumbered names sort last.
func artifactSeq(path string) int {
	base := filepath.Base(path)
	i := strings.Index(base, "pr")
	if i < 0 {
		return 1 << 30
	}
	n := 0
	digits := false
	for _, r := range base[i+2:] {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
		digits = true
	}
	if !digits {
		return 1 << 30
	}
	return n
}
