package exp

import (
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

// SplitRow is one x-position of the split-memory ablation: the Figure 8
// registration sweep run a third time with the §6 "enclaved and
// external parts" configuration, where the enclave seals cold pages to
// untrusted memory at user level instead of taking hardware EPC
// faults. Both in-enclave runs hold the same plaintext budget
// (cfg.EPCBytes); past that budget the hardware path pays ~7 µs per
// fault (AEX + kernel + EWB/ELD) while the split path pays one
// in-enclave AES-GCM unseal, plus a seal only for dirty victims.
type SplitRow struct {
	Subs int
	// DBMB is the subscription-store size in MB (x-axis, as Fig. 8).
	DBMB float64
	// OutMicros, EPCMicros and SplitMicros are per-subscription
	// registration costs of the window for the three configurations.
	OutMicros   float64
	EPCMicros   float64
	SplitMicros float64
	// EPCRatio and SplitRatio are the in/out time ratios (Fig. 8 left
	// axis; the paper's hardware path reaches ~18×).
	EPCRatio   float64
	SplitRatio float64
	// EPCFaults are hardware paging events in the window; SplitFaults
	// and SplitWritebacks are user-level unseals and dirty seals.
	EPCFaults       uint64
	SplitFaults     uint64
	SplitWritebacks uint64
}

// AblationSplit reruns the Figure 8 registration experiment with the
// split-memory engine alongside the hardware-paged and outside
// baselines. All three engines ingest the identical subscription
// stream (workload e80a1, plaintext, bulk windows).
func AblationSplit(cfg Config) ([]SplitRow, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := workload.SpecByName("e80a1")
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+900)
	if err != nil {
		return nil, err
	}
	// The split runner's plaintext budget is the EPC size, so the
	// hardware-paged and split runs spill at the same database size.
	runs := make([]*runner, 0, 3)
	for _, mem := range []memory{untrusted, epcMemory, splitMemory} {
		r, err := plainRunner(cfg, mem, false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	out, epc, split := runs[0], runs[1], runs[2]
	var rows []SplitRow
	err = sweep(gen, cfg.Fig8Subs, cfg.Fig8Step, runs, func(subs int, d []simmem.Counters) {
		row := SplitRow{
			Subs:            subs,
			DBMB:            split.mb(),
			OutMicros:       out.perOp(d[0], cfg.Fig8Step),
			EPCMicros:       epc.perOp(d[1], cfg.Fig8Step),
			SplitMicros:     split.perOp(d[2], cfg.Fig8Step),
			EPCFaults:       d[1].PageFaults,
			SplitFaults:     d[2].UserFaults,
			SplitWritebacks: d[2].UserWritebacks,
		}
		row.EPCRatio = row.EPCMicros / row.OutMicros
		row.SplitRatio = row.SplitMicros / row.OutMicros
		rows = append(rows, row)
	})
	return rows, err
}
