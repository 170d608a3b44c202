// Command benchmark measures the secure router end to end and layer by
// layer. It stands up a live single-router deploy.Topology per
// workload, drives it from generated inputs, checks every delivery, and
// prints each metric by name with its unit. See README.md.
//
//	benchmark -workload pipe -seed 1 -seconds 15 -trace 0   one gated run; last line is the result as JSON
//	benchmark -workload pipe -trace 1                        one traced run: per-layer metrics + out/trace-pipe.json
//	benchmark                                                all workloads, gated
//	benchmark -repeat 5                                      the suite five times, with medians, quartiles and spreads
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
)

// traceDir is where traced runs write their span files, relative to
// the working directory (the root of the checkout).
var traceDir = filepath.Join("benchmark", "out")

func main() {
	os.Exit(run(os.Args[1:]))
}

// manifestPath is BENCHMARK.json, relative to the working directory
// (the root of the checkout).
const manifestPath = "BENCHMARK.json"

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (pipe, match, churn, aspe) and end with its result as one JSON line; default: all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same subscriptions and events")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
	repeat := fs.Int("repeat", 1, "run the suite this many times and report medians, quartiles and spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		measure := runGated
		if *trace == 1 {
			measure = runTraced
		}
		res, err := measure(ctx, w, *seed, planFor(*seconds))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		res.print(os.Stdout)
		fmt.Println(res.jsonLine())
		if res.v.failed() > 0 {
			return 1
		}
		return 0
	}

	// Suite mode: every run is a child process, as it is under the PR
	// driver, so one workload's heap and peak RSS never reach the next.
	var man *manifest
	if *repeat > 1 {
		var err error
		if man, err = loadManifest(manifestPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	runs := make(map[string][]map[string]float64)
	for i := 0; i < *repeat; i++ {
		for _, w := range workloads {
			metrics, failed, err := runChild(ctx, self, w.name, *seed, *seconds, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if failed > 0 {
				code = 1
			}
			runs[w.name] = append(runs[w.name], metrics)
		}
	}
	if man != nil && !reportRepeats(os.Stdout, runs, man, *trace == 1) {
		code = 1
	}
	return code
}

// runChild runs one workload in a child process, passes its report
// through, and returns the metrics of its result line.
func runChild(ctx context.Context, self, name string, seed int64, seconds float64, trace int) (map[string]float64, uint64, error) {
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	report, last := cutLastLine(out)
	os.Stdout.Write(report)
	var line struct {
		Failed  uint64 `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		if runErr != nil {
			return nil, 0, runErr
		}
		return nil, 0, fmt.Errorf("no result line: %w", err)
	}
	metrics := make(map[string]float64, len(line.Metrics))
	for k, v := range line.Metrics {
		metrics[k] = v.Value
	}
	return metrics, line.Failed, nil
}

// cutLastLine splits off the last non-empty line.
func cutLastLine(out []byte) (before, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n') // -1 when there is only one line
	return out[:i+1], out[i+1:]
}

// jsonLine is the driver's contract: correct, attempted, failed and
// the metrics, on one line.
func (r *result) jsonLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.v.failed() == 0,
		Attempted: r.attempted,
		Failed:    r.v.failed(),
		Metrics:   make(map[string]value, len(r.metrics)),
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // only non-finite floats can fail, and every metric is a measured finite number
	}
	return string(raw)
}
