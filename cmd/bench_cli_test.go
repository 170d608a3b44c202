package cmd_test

import (
	"bytes"
	"encoding/csv"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestBenchCLI runs scbr-bench at a tiny scale covering the figure
// harness and the §6 ablations, and reads each CSV artefact back: a
// header plus at least one row, every row as wide as the header, the
// plotted columns numeric.
func TestBenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	bin := filepath.Join(t.TempDir(), "scbr-bench")
	if out, err := exec.Command("go", "build", "-o", bin, "scbr/cmd/scbr-bench").CombinedOutput(); err != nil {
		t.Fatalf("building scbr-bench: %v\n%s", err, out)
	}
	csvDir := t.TempDir()

	bench := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("scbr-bench %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	out := bench("-fig5", "-sizes", "200,500", "-pubs", "30", "-csv", csvDir)
	if !strings.Contains(out, "Figure 5") {
		t.Fatalf("fig5 banner missing:\n%s", out)
	}
	out = bench("-switchless", "-sizes", "400", "-pubs", "60", "-csv", csvDir)
	if !strings.Contains(out, "switchless") {
		t.Fatalf("switchless row missing:\n%s", out)
	}
	out = bench("-align", "-sizes", "400", "-pubs", "30", "-csv", csvDir)
	if !strings.Contains(out, "aligned") {
		t.Fatalf("aligned row missing:\n%s", out)
	}
	out = bench("-split", "-fig8subs", "3000", "-fig8step", "500", "-epc", "1", "-pad", "400", "-csv", csvDir)
	if !strings.Contains(out, "split ratio") {
		t.Fatalf("split header missing:\n%s", out)
	}

	// The columns a reader of each artefact plots: present in the
	// header and numeric in every row (mode and aligned are labels).
	for name, cols := range map[string][]string{
		"fig5.csv":                {"subs", "in_aes_us", "in_plain_us", "out_aes_us", "out_plain_us"},
		"ablation_switchless.csv": {"transitions", "us_per_op"},
		"ablation_align.csv":      {"footprint_mb", "out_us", "in_us"},
		"ablation_split.csv":      {"db_mb", "epc_ratio", "split_ratio"},
	} {
		raw, err := os.ReadFile(filepath.Join(csvDir, name))
		if err != nil {
			t.Fatal(err)
		}
		// csv.Reader rejects a row whose width differs from the header's.
		rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s: %d rows, want a header and at least one data row", name, len(rows))
		}
		for _, col := range cols {
			c := slices.Index(rows[0], col)
			if c < 0 {
				t.Fatalf("%s: no column %q in %v", name, col, rows[0])
			}
			for _, row := range rows[1:] {
				if _, err := strconv.ParseFloat(row[c], 64); err != nil {
					t.Fatalf("%s: column %q: %v", name, col, err)
				}
			}
		}
	}
}
