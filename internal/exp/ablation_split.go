package exp

import (
	"fmt"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
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
	if cfg.Fig8Subs <= 0 || cfg.Fig8Step <= 0 || cfg.Fig8Step > cfg.Fig8Subs {
		return nil, fmt.Errorf("exp: invalid split-ablation parameters %d/%d", cfg.Fig8Subs, cfg.Fig8Step)
	}
	spec, err := workload.SpecByName("e80a1")
	if err != nil {
		return nil, err
	}
	genOut, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+900)
	if err != nil {
		return nil, err
	}
	genEPC, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+900)
	if err != nil {
		return nil, err
	}
	genSplit, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+900)
	if err != nil {
		return nil, err
	}

	outRun, err := newEngineRun(cfg, outPlain, cfg.Seed+6)
	if err != nil {
		return nil, err
	}
	epcRun, err := newEngineRun(cfg, inPlain, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	splitEngine, splitAcc, err := newSplitEngine(cfg)
	if err != nil {
		return nil, err
	}

	rows := make([]SplitRow, 0, cfg.Fig8Subs/cfg.Fig8Step)
	for done := 0; done < cfg.Fig8Subs; done += cfg.Fig8Step {
		outBatch := genOut.Subscriptions(cfg.Fig8Step)
		epcBatch := genEPC.Subscriptions(cfg.Fig8Step)
		splitBatch := genSplit.Subscriptions(cfg.Fig8Step)

		outMeter := outRun.engine.Accessor().Meter()
		outBefore := outMeter.C
		if err := outRun.registerBulk(outBatch); err != nil {
			return nil, err
		}
		outDelta := outMeter.C.Sub(outBefore)

		epcMeter := epcRun.engine.Accessor().Meter()
		epcBefore := epcMeter.C
		if err := epcRun.registerBulk(epcBatch); err != nil {
			return nil, err
		}
		epcDelta := epcMeter.C.Sub(epcBefore)

		splitMeter := splitAcc.Meter()
		splitBefore := splitMeter.C
		// One ecall delivers the whole window, as registerBulk does for
		// the hardware-paged run.
		splitMeter.ChargeTransition()
		for i, s := range splitBatch {
			if _, err := splitEngine.Register(s, uint32(i)); err != nil {
				return nil, fmt.Errorf("exp: split registration: %w", err)
			}
		}
		splitDelta := splitMeter.C.Sub(splitBefore)

		row := SplitRow{
			Subs:            done + cfg.Fig8Step,
			DBMB:            float64(splitEngine.Accessor().Size()) / (1 << 20),
			OutMicros:       cfg.Cost.Micros(outDelta.Cycles) / float64(cfg.Fig8Step),
			EPCMicros:       cfg.Cost.Micros(epcDelta.Cycles) / float64(cfg.Fig8Step),
			SplitMicros:     cfg.Cost.Micros(splitDelta.Cycles) / float64(cfg.Fig8Step),
			EPCFaults:       epcDelta.PageFaults,
			SplitFaults:     splitDelta.UserFaults,
			SplitWritebacks: splitDelta.UserWritebacks,
		}
		row.EPCRatio = row.EPCMicros / row.OutMicros
		row.SplitRatio = row.SplitMicros / row.OutMicros
		rows = append(rows, row)
	}
	return rows, nil
}

// newSplitEngine launches an enclave and builds an engine over its
// split-memory accessor with the in-enclave plaintext budget set to
// the configured EPC size, so the hardware-paged and split runs spill
// at the same database size.
func newSplitEngine(cfg Config) (*core.Engine, *sgx.Accessor, error) {
	dev, err := sgx.NewDevice([]byte("exp-split-device"), cfg.Cost)
	if err != nil {
		return nil, nil, err
	}
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		return nil, nil, err
	}
	enclave, err := dev.Launch([]byte("scbr split-memory engine"), signer.Public(),
		sgx.EnclaveConfig{EPCBytes: cfg.EPCBytes})
	if err != nil {
		return nil, nil, err
	}
	acc, err := enclave.SplitMemory(cfg.EPCBytes)
	if err != nil {
		return nil, nil, err
	}
	engine, err := core.NewEngine(acc, pubsub.NewSchema(), core.Options{PadRecordTo: cfg.PadRecordTo})
	if err != nil {
		return nil, nil, err
	}
	return engine, acc, nil
}
