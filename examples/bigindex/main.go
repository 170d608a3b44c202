// Bigindex: what happens when the subscription database outgrows the
// enclave page cache — and how the split-memory engine (the paper's §6
// "enclaved and external parts" future work) softens the cliff.
//
// The paper's Figure 8 shows in-enclave registration collapsing to
// ~18× the outside cost once the store exceeds the ~93 MB EPC, because
// every hardware paging event takes an asynchronous exit, a kernel
// crossing, and an EWB/ELD pair. This example registers the same
// subscription stream into three engines — outside, in-enclave with
// hardware paging, and in-enclave with user-level split memory — using
// a deliberately small 4 MB protected budget so the overflow happens
// in seconds, and prints the per-window cost ratios.
//
// Run with:
//
//	go run ./examples/bigindex
package main

import (
	"fmt"
	"log"

	"scbr"
)

const (
	budget    = 4 << 20 // protected-memory budget for both in-enclave engines
	totalSubs = 24_000  // ≈ 10 MB at the paper's ~437 B/subscription
	window    = 3_000   // subscriptions per reported row
	padRecord = 400     // reproduces the paper's record footprint
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dev, err := scbr.NewDevice(nil)
	if err != nil {
		return err
	}
	opts := []scbr.Option{scbr.WithEPC(budget), scbr.WithPadding(padRecord)}

	plain, err := scbr.NewPlainEngine(scbr.WithPadding(padRecord))
	if err != nil {
		return err
	}
	epcEngine, _, err := scbr.NewEnclaveEngine(dev, opts...)
	if err != nil {
		return err
	}
	// The split engine gets the same protected budget, but manages it
	// itself: cold pages are sealed to untrusted memory with AES-GCM
	// and version counters instead of being paged by the hardware.
	splitEngine, _, err := scbr.NewSplitEngine(dev, budget, opts...)
	if err != nil {
		return err
	}

	// The same Table 1 stock-quote workload the paper registers.
	qs, err := scbr.NewQuoteSet(1, 200, 500)
	if err != nil {
		return err
	}
	wl, err := scbr.WorkloadByName("e80a1")
	if err != nil {
		return err
	}
	cost := scbr.DefaultCostModel()
	gens := make([]*scbr.WorkloadGenerator, 3)
	for i := range gens {
		// One generator per engine, same seed: identical streams.
		if gens[i], err = scbr.NewWorkloadGenerator(wl, qs, 42); err != nil {
			return err
		}
	}

	fmt.Printf("protected budget: %d MB, store will reach ≈%d MB\n\n",
		budget>>20, totalSubs*(padRecord+64)>>20)
	fmt.Println("  subs    DB MB   out µs/sub   EPC µs/sub   split µs/sub   EPC×   split×")

	engines := []*scbr.Engine{plain, epcEngine, splitEngine}
	for done := 0; done < totalSubs; done += window {
		var micros [3]float64
		for i, e := range engines {
			before := e.Accessor().Meter().C
			for j, spec := range gens[i].Subscriptions(window) {
				if _, err := e.Register(spec, uint32(done+j)); err != nil {
					return fmt.Errorf("registering subscription %d: %w", done+j, err)
				}
			}
			delta := e.Accessor().Meter().C.Sub(before)
			micros[i] = cost.Micros(delta.Cycles) / window
		}
		fmt.Printf("%7d %8.1f %12.2f %12.2f %14.2f %6.1f %8.1f\n",
			done+window,
			float64(splitEngine.Accessor().Size())/(1<<20),
			micros[0], micros[1], micros[2],
			micros[1]/micros[0], micros[2]/micros[0])
	}

	// Past the budget the hardware-paged engine faults on nearly every
	// record touch; the split engine unseals at user level instead.
	epcCounters := epcEngine.Accessor().Meter().C
	splitCounters := splitEngine.Accessor().Meter().C
	fmt.Printf("\nhardware EPC faults: %d (≈%.1f µs each)\n",
		epcCounters.PageFaults, cost.Micros(cost.PageFaultCycles))
	fmt.Printf("split user faults:   %d unseals, %d dirty seals (≈%.1f µs per crypto pass)\n",
		splitCounters.UserFaults, splitCounters.UserWritebacks,
		cost.Micros(cost.SealFixedCycles+uint64(cost.AESByteCycles*4096)))

	// Both engines still match correctly, of course.
	pub := gens[0].Publications(1)[0]
	for name, e := range map[string]*scbr.Engine{"EPC": epcEngine, "split": splitEngine} {
		interned, err := pub.Intern(e.Schema())
		if err != nil {
			return err
		}
		matches, err := e.Match(interned)
		if err != nil {
			return err
		}
		fmt.Printf("%s engine: sample publication matches %d subscriptions\n", name, len(matches))
	}
	fmt.Println("\ndone: split memory turns the paging cliff into a slope (`scbr-bench -split` sweeps it)")
	return nil
}
