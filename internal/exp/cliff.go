package exp

import (
	"fmt"

	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

// CliffWindow is one registration window of a paging-cliff sweep.
type CliffWindow struct {
	// Subs is the cumulative subscription count after the window.
	Subs int
	// DBMB is the slice store size in MB after the window.
	DBMB float64
	// MicrosPerSub is the window's simulated registration cost per
	// subscription.
	MicrosPerSub float64
	// Faults and Writebacks are the split cache's user-level unseals
	// and dirty seals during the window — zero until the working set
	// crosses the budget.
	Faults     uint64
	Writebacks uint64
}

// CliffResult locates one scheme's paging cliff: the subscription
// volume at which its slice store outgrows its EPC budget and
// registration starts paying seal/unseal traffic. This is the per-slice
// limit the deployment planner (internal/deploy) sizes partition counts
// to stay under; the cliff position divided by the budget is the
// scheme's realised bytes-per-subscription, the quantity the footprint
// model predicts.
type CliffResult struct {
	Scheme   string
	EPCBytes uint64
	// CliffSubs and CliffDBMB are the cumulative subscriptions and
	// store size at the end of the first window that paged.
	CliffSubs int
	CliffDBMB float64
	// PreMicrosPerSub and PostMicrosPerSub average the per-subscription
	// registration cost over the windows before and from the cliff;
	// Ratio is their quotient (the Fig. 8 collapse).
	PreMicrosPerSub  float64
	PostMicrosPerSub float64
	Ratio            float64
	Windows          []CliffWindow
}

// PagingCliff sweeps one scheme's slice over split memory until it
// pages: a single slice is built over an enclave's split-memory
// accessor with plaintext budget cfg.EPCBytes, workload e80a1
// subscriptions are encoded with the scheme's codec and registered in
// fixed windows (one simulated ecall per window, as the Figure 8
// methodology), and the cliff is the first window whose split cache
// sealed or unsealed anything. Everything — corpus, codec secrets,
// split-cache behaviour, the simulated clock — is seeded and
// deterministic: the same Config yields byte-identical results, so
// cliff positions can be committed and gated in CI.
func PagingCliff(cfg Config, schemeName string, maxSubs, step int) (*CliffResult, error) {
	qs, err := workload.NewQuoteSet(cfg.Seed, cfg.NumSymbols, cfg.PerSymbol)
	if err != nil {
		return nil, err
	}
	spec, err := workload.SpecByName("e80a1")
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(spec, qs, cfg.Seed+1100)
	if err != nil {
		return nil, err
	}
	codec, err := scheme.NewCodec(schemeName, scheme.WithAttrs(workload.QuoteAttrs(spec.AttrFactor)...), scheme.WithSeed(cfg.Seed+11))
	if err != nil {
		return nil, err
	}
	r, err := newRunner(cfg, splitMemory, false, codec, pubsub.NewSchema())
	if err != nil {
		return nil, err
	}

	res := &CliffResult{Scheme: codec.Name(), EPCBytes: cfg.EPCBytes}
	cliffIdx := -1
	err = sweep(gen, maxSubs, step, []*runner{r}, func(subs int, d []simmem.Counters) {
		w := CliffWindow{
			Subs:         subs,
			DBMB:         r.mb(),
			MicrosPerSub: r.perOp(d[0], step),
			Faults:       d[0].UserFaults,
			Writebacks:   d[0].UserWritebacks,
		}
		if cliffIdx < 0 && w.Faults+w.Writebacks > 0 {
			cliffIdx = len(res.Windows)
		}
		res.Windows = append(res.Windows, w)
	})
	if err != nil {
		return nil, err
	}
	if cliffIdx < 0 {
		return nil, fmt.Errorf("exp: %s never outgrew its %d-byte budget within %d subscriptions — raise the sweep ceiling or shrink the budget",
			res.Scheme, cfg.EPCBytes, maxSubs)
	}
	if cliffIdx == 0 {
		return nil, fmt.Errorf("exp: %s paged in the first window — budget %d is too small for window size %d",
			res.Scheme, cfg.EPCBytes, step)
	}
	res.CliffSubs = res.Windows[cliffIdx].Subs
	res.CliffDBMB = res.Windows[cliffIdx].DBMB
	var pre, post float64
	for i, w := range res.Windows {
		if i < cliffIdx {
			pre += w.MicrosPerSub
		} else {
			post += w.MicrosPerSub
		}
	}
	res.PreMicrosPerSub = pre / float64(cliffIdx)
	res.PostMicrosPerSub = post / float64(len(res.Windows)-cliffIdx)
	res.Ratio = res.PostMicrosPerSub / res.PreMicrosPerSub
	return res, nil
}
