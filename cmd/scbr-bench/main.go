// Command scbr-bench regenerates the paper's evaluation: Figures 5–8
// and the Table 1 workload characteristics, printing paper-style
// series to stdout and optionally CSV files for plotting.
//
// Usage:
//
//	scbr-bench -all
//	scbr-bench -fig5 -fig7 e80a1 -csv results/
//	scbr-bench -fig8 -fig8subs 500000 -epc 93
//
// Times are simulated microseconds from the calibrated cost model of
// internal/simmem (CostModel notes each constant's provenance).
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"scbr/internal/exp"
	"scbr/internal/scheme"
	"scbr/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scbr-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		all      = flag.Bool("all", false, "run every figure and table")
		fig5     = flag.Bool("fig5", false, "Figure 5: encryption and enclave overhead (e100a1)")
		fig6     = flag.Bool("fig6", false, "Figure 6: all workloads, plaintext outside enclaves")
		fig7     = flag.String("fig7", "", "Figure 7 panel for the named workload, or 'all'")
		fig8     = flag.Bool("fig8", false, "Figure 8: EPC exhaustion during registration")
		table1   = flag.Bool("table1", false, "Table 1: realised workload characteristics")
		split    = flag.Bool("split", false, "split-memory ablation: user-level paging vs hardware EPC paging (paper §6)")
		swl      = flag.Bool("switchless", false, "enclave-border ablation: per-message ecalls vs batching vs switchless ring (paper §6)")
		align    = flag.Bool("align", false, "cache-line-alignment ablation: 64B-aligned records vs natural layout (paper §6)")
		horiz    = flag.Bool("horizontal", false, "horizontal-scalability ablation: 1-8 enclave partitions vs EPC exhaustion (paper §6)")
		cliff    = flag.Bool("cliff", false, "per-scheme paging cliff: where each scheme's slice store outgrows a small EPC budget")
		cliffMB  = flag.Int("cliffepc", 4, "EPC budget in MB for the -cliff sweep")
		cliffN   = flag.Int("cliffsubs", 16_000, "total subscriptions for the -cliff sweep")
		cliffW   = flag.Int("cliffstep", 500, "-cliff window size")
		artifact = flag.String("artifact", "", "write the -cliff result as a JSON artifact (the shape of the committed BENCH_pr9.json) to this path")
		commit   = flag.String("commit", "local", "commit label stamped into -artifact output")
		sizes    = flag.String("sizes", "", "comma-separated database sizes (default paper sizes)")
		pubs     = flag.Int("pubs", 0, "publications per measurement (default 1000)")
		fig8subs = flag.Int("fig8subs", 0, "total subscriptions for Figure 8 (default 500000)")
		fig8step = flag.Int("fig8step", 0, "Figure 8 window size (default 5000)")
		epcMB    = flag.Int("epc", 0, "usable EPC size in MB (default 93)")
		pad      = flag.Int("pad", 0, "record padding in bytes (default 400)")
		seed     = flag.Int64("seed", 0, "corpus/generator seed (default 1)")
		csvDir   = flag.String("csv", "", "also write CSV series into this directory")
	)
	flag.Parse()

	cfg := exp.DefaultConfig()
	if *sizes != "" {
		cfg.Sizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("invalid size %q: %w", s, err)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	if *pubs > 0 {
		cfg.PubBatch = *pubs
	}
	if *fig8subs > 0 {
		cfg.Fig8Subs = *fig8subs
	}
	if *fig8step > 0 {
		cfg.Fig8Step = *fig8step
	}
	if *epcMB > 0 {
		cfg.EPCBytes = uint64(*epcMB) << 20
	}
	if *pad > 0 {
		cfg.PadRecordTo = *pad
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	ran := false
	if *table1 || *all {
		ran = true
		if err := runTable1(cfg, *csvDir); err != nil {
			return err
		}
	}
	if *fig5 || *all {
		ran = true
		if err := runFig5(cfg, *csvDir); err != nil {
			return err
		}
	}
	if *fig6 || *all {
		ran = true
		if err := runFig6(cfg, *csvDir); err != nil {
			return err
		}
	}
	if *fig7 != "" || *all {
		ran = true
		name := *fig7
		if name == "" || *all {
			name = "all"
		}
		if err := runFig7(cfg, name, *csvDir); err != nil {
			return err
		}
	}
	if *fig8 || *all {
		ran = true
		if err := runFig8(cfg, *csvDir); err != nil {
			return err
		}
	}
	if *split || *all {
		ran = true
		if err := runSplit(cfg, *csvDir); err != nil {
			return err
		}
	}
	if *swl || *all {
		ran = true
		if err := runSwitchless(cfg, *csvDir); err != nil {
			return err
		}
	}
	if *align || *all {
		ran = true
		if err := runAlign(cfg, *csvDir); err != nil {
			return err
		}
	}
	if *horiz || *all {
		ran = true
		if err := runHorizontal(cfg, *csvDir); err != nil {
			return err
		}
	}
	if *cliff || *all {
		ran = true
		cliffCfg := cfg
		cliffCfg.EPCBytes = uint64(*cliffMB) << 20
		if err := runCliff(cliffCfg, *cliffN, *cliffW, *csvDir, *artifact, *commit); err != nil {
			return err
		}
	}
	if !ran {
		flag.Usage()
	}
	return nil
}

// benchArtifact is the shape of BENCH_pr9.json, the committed cliff
// sweep TestCliffGolden compares a fresh run against: go-bench-style
// lines under a commit label.
type benchArtifact struct {
	Commit string   `json:"commit"`
	Ref    string   `json:"ref"`
	Bench  string   `json:"bench"`
	Note   string   `json:"note"`
	Lines  []string `json:"lines"`
}

func runCliff(cfg exp.Config, maxSubs, step int, csvDir, artifactPath, commit string) error {
	fmt.Printf("== Paging cliff: scheme slice stores vs a %d MB EPC budget (e80a1, windows of %d) ==\n",
		cfg.EPCBytes>>20, step)
	schemes := []string{scheme.Plain, scheme.ASPE}
	results := make([]*exp.CliffResult, 0, len(schemes))
	lines := []string{"pkg: scbr/internal/exp"}
	rec := [][]string{{"scheme", "subs", "db_mb", "us_per_sub", "faults", "writebacks"}}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "scheme\tcliff subs\tcliff DB MB\tpre µs/sub\tpost µs/sub\tratio\t")
	for _, name := range schemes {
		res, err := exp.PagingCliff(cfg, name, maxSubs, step)
		if err != nil {
			return err
		}
		results = append(results, res)
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.1f×\t\n",
			res.Scheme, res.CliffSubs, res.CliffDBMB,
			res.PreMicrosPerSub, res.PostMicrosPerSub, res.Ratio)
		lines = append(lines, fmt.Sprintf(
			"BenchmarkPagingCliff/cliff/scheme=%s\t%8d\t%12d cliff-subs\t%12.3f cliff-db-mb\t%12.3f pre-cliff-simus-sub\t%12.3f post-cliff-simus-sub\t%12.3f cliff-ratio",
			res.Scheme, 1, res.CliffSubs, res.CliffDBMB,
			res.PreMicrosPerSub, res.PostMicrosPerSub, res.Ratio))
		for _, win := range res.Windows {
			rec = append(rec, []string{
				res.Scheme, strconv.Itoa(win.Subs), fmt.Sprintf("%.3f", win.DBMB),
				fmt.Sprintf("%.3f", win.MicrosPerSub),
				strconv.FormatUint(win.Faults, 10), strconv.FormatUint(win.Writebacks, 10),
			})
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// The headline comparison: how many times earlier the software-only
	// encrypted scheme hits the cliff than enclave-protected plaintext.
	shift := float64(results[0].CliffSubs) / float64(results[1].CliffSubs)
	fmt.Printf("aspe pages %.1f× earlier than sgx-plain under the same budget\n\n", shift)
	lines = append(lines, fmt.Sprintf(
		"BenchmarkPagingCliff/cliff/plain-over-aspe\t%8d\t%12.3f cliff-shift", 1, shift))

	if artifactPath != "" {
		art := benchArtifact{
			Commit: commit,
			Ref:    "main",
			Bench:  "BenchmarkPagingCliff",
			Note: fmt.Sprintf(
				"per-scheme paging cliff over the split-memory engine: one slice per scheme under a %d MB plaintext budget, e80a1 subscriptions registered in windows of %d (one simulated ecall each); cliff-subs is the first window whose split cache sealed/unsealed pages. Fully deterministic (seeded corpus, codec secrets, and cost model) — the CI gate diffs a fresh sweep against this artifact and any delta means the storage layout or cost model changed. cliff-subs and cliff-db-mb are higher-is-better (a later cliff means a denser store); cliff-shift is sgx-plain's cliff position over aspe's (the footprint gap: ~437 B/sub padded plaintext vs ~2156 B/sub ASPE ciphertext at 11 attributes)",
				cfg.EPCBytes>>20, step),
			Lines: lines,
		}
		raw, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(artifactPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", artifactPath)
	}
	if csvDir == "" {
		return nil
	}
	return writeCSV(filepath.Join(csvDir, "cliff.csv"), rec)
}

func runHorizontal(cfg exp.Config, csvDir string) error {
	fmt.Printf("== Ablation: horizontal scalability (paper §6: k enclave partitions, EPC=%d MB each, %d subs) ==\n",
		cfg.EPCBytes>>20, cfg.Fig8Subs)
	rows, err := exp.AblationHorizontal(cfg, nil)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "partitions\tDB MB\treg µs/sub\tmatch µs/pub (makespan)\tEPC faults\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.1f\t%.2f\t%.2f\t%d\t\n",
			r.Partitions, r.DBMB, r.MicrosPerSub, r.MatchMicros, r.PageFaults)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	rec := [][]string{{"partitions", "db_mb", "reg_us_per_sub", "match_us_makespan", "epc_faults"}}
	for _, r := range rows {
		rec = append(rec, []string{
			strconv.Itoa(r.Partitions), fmt.Sprintf("%.2f", r.DBMB),
			fmt.Sprintf("%.3f", r.MicrosPerSub), fmt.Sprintf("%.3f", r.MatchMicros),
			strconv.FormatUint(r.PageFaults, 10),
		})
	}
	return writeCSV(filepath.Join(csvDir, "ablation_horizontal.csv"), rec)
}

func runAlign(cfg exp.Config, csvDir string) error {
	fmt.Println("== Ablation: cache-line-aligned records (paper §6: fitting trees into cache lines) ==")
	rows, err := exp.AblationCacheAlign(cfg)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "layout\tout µs/op\tin µs/op\tout miss rate\tfootprint MB\t")
	for _, r := range rows {
		layout := "natural"
		if r.Aligned {
			layout = "aligned"
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.1f%%\t%.1f\t\n",
			layout, r.OutMicros, r.InMicros, r.OutMissRate*100, r.FootprintMB)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	rec := [][]string{{"aligned", "out_us", "in_us", "out_miss_rate", "footprint_mb"}}
	for _, r := range rows {
		rec = append(rec, []string{
			strconv.FormatBool(r.Aligned),
			fmt.Sprintf("%.3f", r.OutMicros), fmt.Sprintf("%.3f", r.InMicros),
			fmt.Sprintf("%.4f", r.OutMissRate), fmt.Sprintf("%.2f", r.FootprintMB),
		})
	}
	return writeCSV(filepath.Join(csvDir, "ablation_align.csv"), rec)
}

func runSwitchless(cfg exp.Config, csvDir string) error {
	fmt.Println("== Ablation: enclave-border delivery (paper §6: ecalls vs batching vs switchless ring) ==")
	rows, err := exp.AblationSwitchless(cfg)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "mode\tµs/op\ttransition share\ttransitions\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f%%\t%d\t\n", r.Mode, r.Micros, r.TransitionShare*100, r.Transitions)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	rec := [][]string{{"mode", "us_per_op", "transition_share", "transitions"}}
	for _, r := range rows {
		rec = append(rec, []string{
			r.Mode, fmt.Sprintf("%.3f", r.Micros),
			fmt.Sprintf("%.5f", r.TransitionShare), strconv.FormatUint(r.Transitions, 10),
		})
	}
	return writeCSV(filepath.Join(csvDir, "ablation_switchless.csv"), rec)
}

func runSplit(cfg exp.Config, csvDir string) error {
	fmt.Printf("== Ablation: split memory (paper §6: enclaved + external tree parts; budget=%d MB) ==\n", cfg.EPCBytes>>20)
	rows, err := exp.AblationSplit(cfg)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "subs\tDB MB\tout µs/sub\tEPC µs/sub\tsplit µs/sub\tEPC ratio\tsplit ratio\tEPC faults\tsplit faults\tseals\t")
	step := len(rows) / 20
	if step == 0 {
		step = 1
	}
	for i, r := range rows {
		if i%step != 0 && i != len(rows)-1 {
			continue // condense the console table; the CSV has all rows
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%d\t\n",
			r.Subs, r.DBMB, r.OutMicros, r.EPCMicros, r.SplitMicros,
			r.EPCRatio, r.SplitRatio, r.EPCFaults, r.SplitFaults, r.SplitWritebacks)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	rec := [][]string{{"subs", "db_mb", "out_us", "epc_us", "split_us", "epc_ratio", "split_ratio", "epc_faults", "split_faults", "split_writebacks"}}
	for _, r := range rows {
		rec = append(rec, []string{
			strconv.Itoa(r.Subs), fmt.Sprintf("%.2f", r.DBMB),
			fmt.Sprintf("%.2f", r.OutMicros), fmt.Sprintf("%.2f", r.EPCMicros), fmt.Sprintf("%.2f", r.SplitMicros),
			fmt.Sprintf("%.2f", r.EPCRatio), fmt.Sprintf("%.2f", r.SplitRatio),
			strconv.FormatUint(r.EPCFaults, 10), strconv.FormatUint(r.SplitFaults, 10), strconv.FormatUint(r.SplitWritebacks, 10),
		})
	}
	return writeCSV(filepath.Join(csvDir, "ablation_split.csv"), rec)
}

func runTable1(cfg exp.Config, csvDir string) error {
	rows, err := exp.Table1Stats(cfg, 20_000)
	if err != nil {
		return err
	}
	fmt.Println("== Table 1: workload characteristics (realised over 20k subscriptions) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tattr factor\tdistribution\tpub attrs\teq-predicate mix (spec → realised)")
	for _, r := range rows {
		mixes := make([]string, 0, len(r.Spec.EqMix))
		for _, c := range r.Spec.EqMix {
			mixes = append(mixes, fmt.Sprintf("%d eq: %.0f%%→%.1f%%", c.NumEq, c.Frac*100, r.Mix.EqFrac[c.NumEq]*100))
		}
		fmt.Fprintf(w, "%s\t×%d\t%s\t%d–%d (avg %.1f)\t%s\n",
			r.Name, r.Spec.AttrFactor, r.Spec.Dist, r.MinAttrs, r.MaxAttrs, r.AvgAttrs, strings.Join(mixes, ", "))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	rec := [][]string{{"workload", "attr_factor", "dist", "min_attrs", "max_attrs", "avg_attrs", "avg_preds"}}
	for _, r := range rows {
		rec = append(rec, []string{
			r.Name, strconv.Itoa(r.Spec.AttrFactor), r.Spec.Dist.String(),
			strconv.Itoa(r.MinAttrs), strconv.Itoa(r.MaxAttrs),
			fmt.Sprintf("%.2f", r.AvgAttrs), fmt.Sprintf("%.2f", r.Mix.AvgPreds),
		})
	}
	return writeCSV(filepath.Join(csvDir, "table1.csv"), rec)
}

func runFig5(cfg exp.Config, csvDir string) error {
	fmt.Println("== Figure 5: overhead of encryption and enclave (e100a1, µs/op) ==")
	rows, err := exp.Figure5(cfg)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "subs\tIn AES\tIn plain\tOut AES\tOut plain\tin/out\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t\n",
			r.Subs, r.InAES, r.InPlain, r.OutAES, r.OutPlain, r.InAES/r.OutAES)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	rec := [][]string{{"subs", "in_aes_us", "in_plain_us", "out_aes_us", "out_plain_us"}}
	for _, r := range rows {
		rec = append(rec, []string{
			strconv.Itoa(r.Subs),
			fmt.Sprintf("%.3f", r.InAES), fmt.Sprintf("%.3f", r.InPlain),
			fmt.Sprintf("%.3f", r.OutAES), fmt.Sprintf("%.3f", r.OutPlain),
		})
	}
	return writeCSV(filepath.Join(csvDir, "fig5.csv"), rec)
}

func runFig6(cfg exp.Config, csvDir string) error {
	fmt.Println("== Figure 6: containment-based matching per workload (plaintext, outside; µs/op) ==")
	rows, err := exp.Figure6(cfg)
	if err != nil {
		return err
	}
	names := make([]string, 0, 9)
	for _, s := range workload.Table1() {
		names = append(names, s.Name)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "subs\t%s\t\n", strings.Join(names, "\t"))
	for _, r := range rows {
		cells := make([]string, 0, len(names))
		for _, n := range names {
			cells = append(cells, fmt.Sprintf("%.2f", r.Micros[n]))
		}
		fmt.Fprintf(w, "%d\t%s\t\n", r.Subs, strings.Join(cells, "\t"))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	rec := [][]string{append([]string{"subs"}, names...)}
	for _, r := range rows {
		row := []string{strconv.Itoa(r.Subs)}
		for _, n := range names {
			row = append(row, fmt.Sprintf("%.3f", r.Micros[n]))
		}
		rec = append(rec, row)
	}
	return writeCSV(filepath.Join(csvDir, "fig6.csv"), rec)
}

func runFig7(cfg exp.Config, name, csvDir string) error {
	var panels map[string][]exp.Fig7Row
	if name == "all" {
		var err error
		panels, err = exp.Figure7All(cfg)
		if err != nil {
			return err
		}
	} else {
		rows, err := exp.Figure7(cfg, name)
		if err != nil {
			return err
		}
		panels = map[string][]exp.Fig7Row{name: rows}
	}
	names := make([]string, 0, len(panels))
	for n := range panels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("== Figure 7 [%s]: Out ASPE vs In AES vs Out AES (µs/op) + LLC miss rate ==\n", n)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(w, "subs\tOut ASPE\tIn AES\tOut AES\tASPE/SCBR\tmiss rate\t")
		for _, r := range panels[n] {
			fmt.Fprintf(w, "%d\t%.1f\t%.2f\t%.2f\t%.0f×\t%.1f%%\t\n",
				r.Subs, r.OutASPE, r.InAES, r.OutAES, r.OutASPE/r.OutAES, r.MissRate*100)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println()
		if csvDir != "" {
			rec := [][]string{{"subs", "out_aspe_us", "in_aes_us", "out_aes_us", "miss_rate"}}
			for _, r := range panels[n] {
				rec = append(rec, []string{
					strconv.Itoa(r.Subs),
					fmt.Sprintf("%.3f", r.OutASPE), fmt.Sprintf("%.3f", r.InAES),
					fmt.Sprintf("%.3f", r.OutAES), fmt.Sprintf("%.4f", r.MissRate),
				})
			}
			if err := writeCSV(filepath.Join(csvDir, "fig7_"+n+".csv"), rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func runFig8(cfg exp.Config, csvDir string) error {
	fmt.Printf("== Figure 8: registration cost past the EPC limit (e80a1, EPC=%d MB) ==\n", cfg.EPCBytes>>20)
	rows, err := exp.Figure8(cfg)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "subs\tDB MB\tin µs/sub\tout µs/sub\ttime ratio\tfault ratio\t")
	step := len(rows) / 20
	if step == 0 {
		step = 1
	}
	for i, r := range rows {
		if i%step != 0 && i != len(rows)-1 {
			continue // condense the console table; the CSV has all rows
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.0f\t\n",
			r.Subs, r.DBMB, r.InMicros, r.OutMicros, r.TimeRatio, r.FaultRatio)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	rec := [][]string{{"subs", "db_mb", "in_us", "out_us", "time_ratio", "fault_ratio"}}
	for _, r := range rows {
		rec = append(rec, []string{
			strconv.Itoa(r.Subs), fmt.Sprintf("%.2f", r.DBMB),
			fmt.Sprintf("%.2f", r.InMicros), fmt.Sprintf("%.2f", r.OutMicros),
			fmt.Sprintf("%.2f", r.TimeRatio), fmt.Sprintf("%.1f", r.FaultRatio),
		})
	}
	return writeCSV(filepath.Join(csvDir, "fig8.csv"), rec)
}

func writeCSV(path string, records [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	if err := cw.WriteAll(records); err != nil {
		_ = f.Close()
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
