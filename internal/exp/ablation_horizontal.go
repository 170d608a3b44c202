package exp

import (
	"fmt"

	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/workload"
)

// HorizontalRow is one partition count of the horizontal-scalability
// ablation. The paper's conclusion claims the EPC limitation "can be
// overcome through horizontal scalability"; here the same subscription
// stream is partitioned across k enclaves (StreamHub-style, §3.4), so
// a database that pages on one enclave fits k EPCs.
type HorizontalRow struct {
	// Partitions is k, the number of enclave-backed matcher slices.
	Partitions int
	// DBMB is the total store size across slices.
	DBMB float64
	// MicrosPerSub is the mean in-enclave registration cost per
	// subscription, summed over slices (single-machine work; the
	// slices of a real deployment run on separate hosts).
	MicrosPerSub float64
	// MatchMicros is the simulated makespan per publication when the
	// slices match in parallel.
	MatchMicros float64
	// PageFaults counts EPC paging events across all slices.
	PageFaults uint64
}

// AblationHorizontal registers cfg.Fig8Subs subscriptions (workload
// e80a1, padded records, cfg.EPCBytes per enclave) round-robin into
// 1, 2, 4 and 8 enclave slices, then matches a publication batch on
// every slice.
func AblationHorizontal(cfg Config, parts []int) ([]HorizontalRow, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		parts = []int{1, 2, 4, 8}
	}
	spec, err := workload.SpecByName("e80a1")
	if err != nil {
		return nil, err
	}
	codec, err := scheme.NewCodec(scheme.Plain)
	if err != nil {
		return nil, err
	}

	rows := make([]HorizontalRow, 0, len(parts))
	for _, k := range parts {
		if k <= 0 {
			return nil, fmt.Errorf("exp: invalid partition count %d", k)
		}
		subGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+1200)
		if err != nil {
			return nil, err
		}
		pubGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+1300)
		if err != nil {
			return nil, err
		}
		// One enclave per slice, each with its own EPC, over the
		// router's one schema: the replicated deployment of §3.4.
		schema := pubsub.NewSchema()
		runs := make([]*runner, k)
		for i := range runs {
			if runs[i], err = newRunner(cfg, epcMemory, false, codec, schema); err != nil {
				return nil, err
			}
		}

		// Registration phase: the stream is dealt round-robin across
		// slices, one ecall per subscription.
		row := HorizontalRow{Partitions: k}
		var regCycles uint64
		for i, s := range subGen.Subscriptions(cfg.Fig8Subs) {
			delta, err := runs[i%k].register([]pubsub.SubscriptionSpec{s}, 1)
			if err != nil {
				return nil, fmt.Errorf("exp: horizontal k=%d sub %d: %w", k, i, err)
			}
			regCycles += delta.Cycles
			row.PageFaults += delta.PageFaults
		}
		for _, r := range runs {
			row.DBMB += r.mb()
		}
		row.MicrosPerSub = cfg.Cost.Micros(regCycles) / float64(cfg.Fig8Subs)

		// Matching phase: every slice matches every publication; the
		// slices of a deployment run side by side, so a publication
		// costs what its slowest slice charged. Simulated cycles need no
		// real parallelism to say that.
		pubs := pubGen.Publications(cfg.PubBatch)
		for _, r := range runs {
			if err := r.prepare(pubs); err != nil {
				return nil, err
			}
		}
		var makespan uint64
		for j := range pubs {
			var slowest uint64
			for i, r := range runs {
				delta, err := r.match(r.headers[j:j+1], 1)
				if err != nil {
					return nil, fmt.Errorf("exp: horizontal k=%d slice %d: %w", k, i, err)
				}
				slowest = max(slowest, delta.Cycles)
			}
			makespan += slowest
		}
		row.MatchMicros = cfg.Cost.Micros(makespan) / float64(len(pubs))
		rows = append(rows, row)
	}
	return rows, nil
}
