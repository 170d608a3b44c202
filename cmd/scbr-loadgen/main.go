// Command scbr-loadgen runs the production-shaped load harness: it
// stands up live in-process topologies across a declarative
// (partitions × scheme × routers) matrix, registers a zipf
// subscription population through the bulk path, drives publish
// storms, a flash crowd, and reconnect churn at the measured
// listeners, and writes a self-describing JSON artifact with
// throughput, delivery-latency percentiles, gap counts, and a host
// baseline. The question it answers is whether the topology stands up
// and accounts for every delivery; its rates are one run's smoke.
//
// Usage:
//
//	scbr-loadgen -scenario smoke -out loadgen_smoke.json [-commit <sha>]
//	scbr-loadgen -spec scenario.json -out out.json
//	scbr-loadgen -list
//
// -scenario names a builtin; -spec loads a JSON scenario file
// (unknown fields are rejected); -seed overrides the scenario's seed.
// The run fails (exit 1) if any cell leaves events unaccounted —
// deliveries that were neither received nor reported as resume gaps.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"scbr/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("scbr-loadgen: %v", err)
	}
}

func run() error {
	var (
		scenarioName = flag.String("scenario", "", "builtin scenario to run (see -list)")
		specPath     = flag.String("spec", "", "path to a JSON scenario file")
		out          = flag.String("out", "", "artifact path (default: stdout)")
		seed         = flag.Int64("seed", 0, "override the scenario seed (0 = keep)")
		commit       = flag.String("commit", "", "commit hash recorded in the host baseline")
		list         = flag.Bool("list", false, "list builtin scenarios and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range loadgen.BuiltinNames() {
			s, err := loadgen.Builtin(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-8s %s\n", name, s.Description)
		}
		return nil
	}

	var scenario *loadgen.Scenario
	switch {
	case *scenarioName != "" && *specPath != "":
		return fmt.Errorf("-scenario and -spec are mutually exclusive")
	case *scenarioName != "":
		s, err := loadgen.Builtin(*scenarioName)
		if err != nil {
			return err
		}
		scenario = s
	case *specPath != "":
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		s, err := loadgen.ParseScenario(f)
		f.Close()
		if err != nil {
			return err
		}
		scenario = s
	default:
		return fmt.Errorf("one of -scenario or -spec is required (try -list)")
	}
	if *seed != 0 {
		scenario.Seed = *seed
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(format string, args ...any) { log.Printf(format, args...) }
	res, err := loadgen.Run(ctx, scenario, logf, *commit)
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := res.WriteJSON(w); err != nil {
		return err
	}

	var unaccounted uint64
	for _, c := range res.Cells {
		unaccounted += c.Unaccounted
	}
	if unaccounted > 0 {
		return fmt.Errorf("%d deliveries unaccounted (neither received nor gap-reported)", unaccounted)
	}
	return nil
}
