// Command scbr-workload inspects and exports the Table 1 workload
// datasets: synthetic quote corpora, subscription sets, and
// publication batches, as JSON lines for external tooling.
//
// Usage:
//
//	scbr-workload -stats
//	scbr-workload -workload e80a4 -subs 1000 -pubs 100 -out data/
//	scbr-workload -workload e80a1 -subs 1000 -pubs 100 -scheme aspe
//
// With -scheme the tool also reports the average wire footprint of the
// generated sets under that matching scheme — the space side of the
// paper's plain-vs-ASPE comparison (ASPE registrations carry up to
// three encrypted sign-test vectors per constraint, plaintext ones a
// few dozen bytes).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scbr-workload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "e80a1", "Table 1 workload name")
		nSubs   = flag.Int("subs", 0, "subscriptions to export")
		nPubs   = flag.Int("pubs", 0, "publications to export")
		outDir  = flag.String("out", "", "output directory (default: stdout)")
		stats   = flag.Bool("stats", false, "print Table 1 workload summaries and exit")
		seed    = flag.Int64("seed", 1, "generator seed")
		symbols = flag.Int("symbols", workload.DefaultNumSymbols, "corpus symbols")
		perSym  = flag.Int("per-symbol", workload.DefaultQuotesPerSym, "quotes per symbol")
		schemeN = flag.String("scheme", "", "report the generated sets' wire footprint under this matching scheme (e.g. sgx-plain, aspe)")
	)
	flag.Parse()

	if *stats {
		return printStats()
	}
	if *nSubs == 0 && *nPubs == 0 {
		return fmt.Errorf("nothing to do: pass -subs/-pubs or -stats")
	}
	spec, err := workload.SpecByName(*name)
	if err != nil {
		return err
	}
	qs, err := workload.NewQuoteSet(*seed, *symbols, *perSym)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(spec, qs, *seed)
	if err != nil {
		return err
	}
	subs := gen.Subscriptions(*nSubs)
	events := gen.Publications(*nPubs)
	if *nSubs > 0 {
		if err := export(*outDir, spec.Name+"-subs.jsonl", func(w *bufio.Writer) error {
			enc := json.NewEncoder(w)
			for _, s := range subs {
				if err := enc.Encode(subJSON(s)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *nPubs > 0 {
		if err := export(*outDir, spec.Name+"-pubs.jsonl", func(w *bufio.Writer) error {
			enc := json.NewEncoder(w)
			for _, p := range events {
				if err := enc.Encode(pubJSON(p)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *schemeN != "" {
		return reportFootprint(*schemeN, spec, subs, events)
	}
	return nil
}

// reportFootprint encodes the generated sets under the named matching
// scheme, prints the average wire blob sizes, and cross-checks the
// scheme's store footprint model against a live slice populated with
// the generated subscriptions.
func reportFootprint(schemeName string, spec workload.Spec, subs []pubsub.SubscriptionSpec, events []pubsub.EventSpec) error {
	universe := workload.QuoteAttrs(spec.AttrFactor)
	codec, err := scheme.NewCodec(schemeName,
		scheme.WithAttrs(universe...),
		scheme.WithCalibration(events...))
	if err != nil {
		return err
	}
	subBytes := 0
	for _, s := range subs {
		enc, err := codec.EncodeSubscription(s)
		if err != nil {
			return fmt.Errorf("encoding subscription under %s: %w", codec.Name(), err)
		}
		subBytes += len(enc)
	}
	pubBytes := 0
	for _, p := range events {
		enc, err := codec.EncodeEvent(p)
		if err != nil {
			return fmt.Errorf("encoding publication under %s: %w", codec.Name(), err)
		}
		pubBytes += len(enc)
	}
	fmt.Fprintf(os.Stderr, "scheme %s wire footprint: %.1f B/subscription (%d), %.1f B/publication header (%d)\n",
		codec.Name(), avg(len(subs), subBytes), len(subs), avg(len(events), pubBytes), len(events))
	if len(subs) > 0 {
		if err := crossCheckStore(codec, schemeName, universe, subs); err != nil {
			return err
		}
	}
	return nil
}

// crossCheckStore registers the generated subscriptions into a freshly
// built slice store and compares the measured store bytes against the
// scheme's FootprintModel prediction — the ground truth behind
// deploy.Plan's partition sizing.
func crossCheckStore(codec scheme.Codec, schemeName string, universe []string, subs []pubsub.SubscriptionSpec) error {
	b, err := scheme.Lookup(schemeName)
	if err != nil {
		return err
	}
	slice, err := b.NewSlice(simmem.NewPlainAccessor(simmem.DefaultCost()), pubsub.NewSchema(), core.Options{})
	if err != nil {
		return err
	}
	params, err := codec.Params()
	if err != nil {
		return err
	}
	// scbr:vet ignore(enclavemeter): footprint cross-check over a plain untrusted-memory accessor; no enclave exists, so there is no transition to meter
	if err := slice.Configure(params); err != nil {
		return err
	}
	for i, s := range subs {
		enc, err := codec.EncodeSubscription(s)
		if err != nil {
			return fmt.Errorf("encoding subscription under %s: %w", codec.Name(), err)
		}
		// scbr:vet ignore(enclavemeter): same plain-accessor cross-check; byte counts are the measurement, not enclave cost
		if err := slice.RegisterEncodedAssigned(enc, uint32(i), uint64(i)+1); err != nil {
			return fmt.Errorf("registering subscription under %s: %w", codec.Name(), err)
		}
	}
	stats := slice.Stats()
	predicted := b.Footprint.Footprint(len(subs), len(universe))
	delta := 0.0
	if stats.Bytes > 0 {
		delta = (float64(predicted) - float64(stats.Bytes)) / float64(stats.Bytes) * 100
	}
	fmt.Fprintf(os.Stderr,
		"scheme %s store footprint: measured %d B for %d subscriptions (%.1f B/sub), model predicts %d B (%+.1f%%)\n",
		codec.Name(), stats.Bytes, stats.Subscriptions,
		avg(stats.Subscriptions, int(stats.Bytes)), predicted, delta)
	return nil
}

func avg(n, total int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func printStats() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tattr factor\tdistribution\tequality mix")
	for _, s := range workload.Table1() {
		mix := ""
		for i, c := range s.EqMix {
			if i > 0 {
				mix += ", "
			}
			mix += fmt.Sprintf("%.0f%% with %d eq", c.Frac*100, c.NumEq)
		}
		fmt.Fprintf(w, "%s\t×%d\t%s\t%s\n", s.Name, s.AttrFactor, s.Dist, mix)
	}
	return w.Flush()
}

func export(dir, name string, write func(*bufio.Writer) error) error {
	var w *bufio.Writer
	if dir == "" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		w = bufio.NewWriter(f)
		fmt.Fprintf(os.Stderr, "writing %s\n", filepath.Join(dir, name))
	}
	if err := write(w); err != nil {
		return err
	}
	return w.Flush()
}

func subJSON(s pubsub.SubscriptionSpec) map[string]any {
	preds := make([]map[string]any, 0, len(s.Predicates))
	for _, p := range s.Predicates {
		m := map[string]any{"attr": p.Attr, "op": p.Op.String(), "value": valueJSON(p.Value)}
		if p.Op == pubsub.OpBetween {
			m["hi"] = valueJSON(p.Hi)
		}
		preds = append(preds, m)
	}
	return map[string]any{"predicates": preds}
}

func pubJSON(p pubsub.EventSpec) map[string]any {
	attrs := make(map[string]any, len(p.Attrs))
	for _, a := range p.Attrs {
		attrs[a.Name] = valueJSON(a.Value)
	}
	return attrs
}

func valueJSON(v pubsub.Value) any {
	switch v.Kind {
	case pubsub.KindInt:
		return v.I
	case pubsub.KindFloat:
		return v.F
	default:
		return v.S
	}
}
