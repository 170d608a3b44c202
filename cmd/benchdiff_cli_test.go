package cmd_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchdiffCLI exercises scbr-benchdiff on both artifact shapes:
// microbenchmark wraps diff per-variant metrics and gate regressions
// through the exit code, loadgen reports diff cell metrics, and
// mixed-shape inputs report no overlap and succeed.
func TestBenchdiffCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	bin := filepath.Join(t.TempDir(), "scbr-benchdiff")
	if out, err := exec.Command("go", "build", "-o", bin, "scbr/cmd/scbr-benchdiff").CombinedOutput(); err != nil {
		t.Fatalf("building scbr-benchdiff: %v\n%s", err, out)
	}
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldBench := write("old.json", `{"commit":"old","lines":[
		"goos: linux",
		"BenchmarkEndToEndPublish/partitions=4 \t 10\t 400000 ns/op\t 20.0 simµs/op\t 100 allocs/op",
		"PASS"]}`)
	newBench := write("new.json", `{"commit":"new","lines":[
		"BenchmarkEndToEndPublish/partitions=4 \t 10\t 200000 ns/op\t 20.0 simµs/op\t 150 allocs/op",
		"BenchmarkEndToEndPublish/batch=16 \t 10\t 100000 ns/op\t 5 allocs/op"]}`)
	loadgen := write("loadgen.json", `{"cells":[
		{"partitions":4,"scheme":"aspe","routers":1,"scale":1,"events_per_sec":1000,
		 "end_to_end":{"p50_ns":5000000,"p95_ns":9000000}}]}`)

	run := func(wantExit int, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("scbr-benchdiff %v: %v\n%s", args, err, out)
		}
		if exit != wantExit {
			t.Fatalf("scbr-benchdiff %v: exit %d, want %d\n%s", args, exit, wantExit, out)
		}
		return string(out)
	}

	// Report-only: improvements and regressions print, exit 0.
	out := run(0, oldBench, newBench)
	if !strings.Contains(out, "partitions=4") || !strings.Contains(out, "-50.00%") {
		t.Fatalf("expected ns/op improvement in report:\n%s", out)
	}
	if strings.Contains(out, "batch=16") {
		t.Fatalf("variant absent from the old artifact must not be compared:\n%s", out)
	}

	// Gated: the 50% allocs/op growth trips the allocation gate...
	out = run(1, "-allocs-threshold", "10", oldBench, newBench)
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "FAIL") {
		t.Fatalf("expected gated allocs/op regression:\n%s", out)
	}
	// ...but not a looser one, and the ns/op gate sees an improvement.
	run(0, "-allocs-threshold", "60", "-threshold", "10", oldBench, newBench)

	// Same-shape loadgen artifacts compare cell metrics.
	out = run(0, loadgen, loadgen)
	if !strings.Contains(out, "partitions=4/scheme=aspe/routers=1/scale=1") || !strings.Contains(out, "events/sec") {
		t.Fatalf("expected loadgen cell metrics:\n%s", out)
	}

	// A pre-split artifact (events_per_sec = the offered rate) lines up
	// with a current one on the offered rate; the through-drain rate has
	// no counterpart there and is left out.
	loadgenNew := write("loadgen_new.json", `{"cells":[
		{"partitions":4,"scheme":"aspe","routers":1,"scale":1,
		 "offered_events_per_sec":2000,"drained_events_per_sec":1500,
		 "end_to_end":{"p50_ns":5000000,"p95_ns":9000000}}]}`)
	out = run(0, loadgen, loadgenNew)
	if !strings.Contains(out, "offered-events/sec") || !strings.Contains(out, "+100.00%") || strings.Contains(out, "drained-events/sec") {
		t.Fatalf("expected the offered rates of old and new artifacts compared:\n%s", out)
	}
	if out = run(0, loadgenNew, loadgenNew); !strings.Contains(out, "drained-events/sec") {
		t.Fatalf("expected the through-drain rate between current artifacts:\n%s", out)
	}

	// Mixed shapes: nothing comparable, still exit 0.
	out = run(0, loadgen, newBench)
	if !strings.Contains(out, "no overlapping variants") {
		t.Fatalf("expected no-overlap note:\n%s", out)
	}

	// Unreadable artifact: usage/artifact error.
	run(2, filepath.Join(dir, "missing.json"), newBench)
}
