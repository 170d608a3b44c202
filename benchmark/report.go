// Printing results, and the measured noise floor: -repeat N prints each
// metric's median, quartiles and spread over N suite runs and checks
// the end-to-end metrics against the bounds BENCHMARK.json fixes.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== workload %s  seed %d ==\n", r.workload, r.seed)
	fmt.Fprintf(w, "host: %v\n", r.host)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", m.name, m.value, m.unit)
	}
	failed := r.v.failed()
	share := 0.0
	if r.attempted > 0 {
		share = float64(failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "oracle: attempted=%d failed=%d failed_share=%g  %v\n", r.attempted, failed, share, &r.v)
}

// manifest is the part of BENCHMARK.json the harness reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &m, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// reportRepeats prints per-metric statistics over the repeated runs and
// reports whether every bounded metric repeated within its bound: with
// two runs, neither may be worse than the other by more than the bound;
// with more, the interquartile spread must stay inside it.
func reportRepeats(w io.Writer, runs map[string][]map[string]float64, man *manifest, traced bool) bool {
	type gate struct {
		name, better string
		bound        float64 // 0 = not gated
	}
	var gates []gate
	if traced {
		for _, m := range man.PerLayer {
			gates = append(gates, gate{name: m.Name})
		}
	} else {
		for _, m := range man.EndToEnd {
			gates = append(gates, gate{m.Name, m.Better, m.Bound})
		}
	}
	ok := true
	for _, wl := range workloads {
		rs := runs[wl.name]
		if len(rs) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s over %d runs ==\n", wl.name, len(rs))
		fmt.Fprintf(w, "  %-42s %12s %12s %12s %9s %9s\n", "metric", "q1", "median", "q3", "iqr/med", "max dev")
		for _, g := range gates {
			var xs []float64
			for _, r := range rs {
				if v, have := r[g.name]; have {
					xs = append(xs, v)
				}
			}
			if len(xs) == 0 {
				continue
			}
			q1, med, q3, rel := spread(xs)
			dev := 0.0
			for _, x := range xs {
				if med != 0 {
					dev = math.Max(dev, math.Abs(x-med)/math.Abs(med))
				}
			}
			verdict := ""
			if g.bound > 0 {
				worst := rel
				if len(xs) == 2 {
					worst = math.Max(worsening(xs[0], xs[1], g.better), worsening(xs[1], xs[0], g.better))
				}
				verdict = fmt.Sprintf("  bound %.3g", g.bound)
				if worst > g.bound {
					verdict += "  EXCEEDED"
					ok = false
				}
			}
			fmt.Fprintf(w, "  %-42s %12.6g %12.6g %12.6g %9.4f %9.4f%s\n", g.name, q1, med, q3, rel, dev, verdict)
		}
	}
	return ok
}
