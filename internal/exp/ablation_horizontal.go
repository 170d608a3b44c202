package exp

import (
	"fmt"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
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
	backend, err := scheme.Lookup(scheme.Plain)
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

		dev, err := sgx.NewDevice([]byte(fmt.Sprintf("exp-horizontal-%d", k)), cfg.Cost)
		if err != nil {
			return nil, err
		}
		signer, err := scrypto.NewKeyPair(nil)
		if err != nil {
			return nil, err
		}
		// One enclave per slice, each with its own EPC: the replicated
		// deployment of §3.4.
		enclaves := make([]*sgx.Enclave, k)
		slices := make([]scheme.Slice, k)
		schema := pubsub.NewSchema()
		for i := range slices {
			e, err := dev.Launch([]byte(fmt.Sprintf("scbr slice image %d", i)), signer.Public(),
				sgx.EnclaveConfig{EPCBytes: cfg.EPCBytes})
			if err != nil {
				return nil, err
			}
			enclaves[i] = e
			if slices[i], err = backend.NewSlice(e.Memory(), schema, core.Options{PadRecordTo: cfg.PadRecordTo}); err != nil {
				return nil, err
			}
		}

		// Registration phase: the stream is dealt round-robin across
		// slices, one ecall per subscription.
		before := make([]simmem.Counters, k)
		for i, e := range enclaves {
			before[i] = e.Memory().Meter().C
		}
		for i, s := range subGen.Subscriptions(cfg.Fig8Subs) {
			enc, err := codec.EncodeSubscription(s)
			if err != nil {
				return nil, fmt.Errorf("exp: horizontal k=%d sub %d: %w", k, i, err)
			}
			slice := slices[i%k]
			err = enclaves[i%k].Ecall(func() error {
				_, err := slice.RegisterEncoded(enc, uint32(i))
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("exp: horizontal k=%d sub %d: %w", k, i, err)
			}
		}
		row := HorizontalRow{Partitions: k}
		var regCycles uint64
		for i, e := range enclaves {
			delta := e.Memory().Meter().C.Sub(before[i])
			regCycles += delta.Cycles
			row.PageFaults += delta.PageFaults
			row.DBMB += float64(e.Memory().Size()) / (1 << 20)
		}
		row.MicrosPerSub = cfg.Cost.Micros(regCycles) / float64(cfg.Fig8Subs)

		// Matching phase: every slice matches every publication; the
		// slices of a deployment run side by side, so a publication
		// costs what its slowest slice charged. Simulated cycles need no
		// real parallelism to say that.
		var makespan uint64
		var scratch []core.MatchResult
		nPubs := cfg.PubBatch
		for _, p := range pubGen.Publications(nPubs) {
			enc, err := codec.EncodeEvent(p)
			if err != nil {
				return nil, err
			}
			var slowest uint64
			for i, slice := range slices {
				meter := enclaves[i].Memory().Meter()
				start := meter.C.Cycles
				err := enclaves[i].Ecall(func() error {
					var err error
					scratch, err = slice.MatchEncoded(enc, scratch[:0])
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("exp: horizontal k=%d slice %d: %w", k, i, err)
				}
				if c := meter.C.Cycles - start; c > slowest {
					slowest = c
				}
			}
			makespan += slowest
		}
		row.MatchMicros = cfg.Cost.Micros(makespan) / float64(nPubs)
		rows = append(rows, row)
	}
	return rows, nil
}
