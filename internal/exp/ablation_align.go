package exp

import "scbr/internal/workload"

// AlignRow is one configuration of the cache-alignment ablation: the
// paper's §6 proposal of "appropriately fitting [the containment
// trees] into cache lines". Rounding records to 64-byte multiples
// stops headers straddling lines (fewer lines touched per record) but
// inflates the footprint (more lines allocated overall); this ablation
// measures which effect wins on the evaluation workload.
type AlignRow struct {
	// Aligned reports whether records were line-aligned.
	Aligned bool
	// OutMicros and InMicros are matching times outside and inside
	// the enclave (plaintext events).
	OutMicros float64
	InMicros  float64
	// OutMissRate is the LLC miss rate of the outside run.
	OutMissRate float64
	// FootprintMB is the subscription-store size.
	FootprintMB float64
}

// AblationCacheAlign measures plaintext matching on e80a1 at the
// largest configured size with and without cache-line-aligned
// records, inside and outside the enclave.
func AblationCacheAlign(cfg Config) ([]AlignRow, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := workload.SpecByName("e80a1")
	if err != nil {
		return nil, err
	}
	size := cfg.Sizes[len(cfg.Sizes)-1]

	rows := make([]AlignRow, 0, 2)
	for _, aligned := range []bool{false, true} {
		runCfg := cfg
		runCfg.CacheAlign = aligned

		subGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+1000)
		if err != nil {
			return nil, err
		}
		pubGen, err := workload.NewGenerator(spec, rt.qs, cfg.Seed+1100)
		if err != nil {
			return nil, err
		}
		pubs := pubGen.Publications(cfg.PubBatch)
		subs := subGen.Subscriptions(size)

		outRun, err := plainRunner(runCfg, untrusted, false)
		if err != nil {
			return nil, err
		}
		inRun, err := plainRunner(runCfg, epcMemory, false)
		if err != nil {
			return nil, err
		}
		for _, r := range []*runner{outRun, inRun} {
			if err := r.prepare(pubs); err != nil {
				return nil, err
			}
			if _, err := r.register(subs, 1); err != nil {
				return nil, err
			}
		}
		outMicros, outCounters, err := outRun.matchAll()
		if err != nil {
			return nil, err
		}
		inMicros, _, err := inRun.matchAll()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AlignRow{
			Aligned:     aligned,
			OutMicros:   outMicros,
			InMicros:    inMicros,
			OutMissRate: outCounters.MissRate(),
			FootprintMB: outRun.mb(),
		})
	}
	return rows, nil
}
