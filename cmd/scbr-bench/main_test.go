package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCliffGolden pins the paging-cliff sweep byte for byte against
// the committed BENCH_pr9.json. The sweep is deterministic (seeded
// corpus, seeded codec secrets, fixed cost model, simulated clock), so
// any difference means a simulated count moved: the storage layout,
// the cost model or a pager changed. That is either a bug or a
// declared finding; for the second, regenerate from the repo root with
//
//	go run ./cmd/scbr-bench -cliff -artifact BENCH_pr9.json -commit local-pr9
func TestCliffGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_pr9.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "cliff.json")
	// run parses the process's flags, as main does.
	flag.CommandLine = flag.NewFlagSet("scbr-bench", flag.ContinueOnError)
	os.Args = []string{"scbr-bench", "-cliff", "-artifact", fresh, "-commit", "local-pr9"}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("cliff sweep diverges from BENCH_pr9.json: a simulated count moved")
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d\n    fresh: %s\ncommitted: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
