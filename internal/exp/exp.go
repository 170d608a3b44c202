// Package exp drives the reproduction of the paper's evaluation: one
// entry point per figure/table, each returning typed rows that
// cmd/scbr-bench prints and the package's tests assert shapes on.
//
// Methodology (matching §4): the subscription database is populated
// incrementally to each target size; at every size a batch of
// publications is matched and the average simulated matching time per
// operation is reported. Every entry point drives one or more runners
// (runner.go): a scheme slice, the store a router partition holds,
// through the calls the router makes. "Inside" configurations run the
// identical slice code against enclave memory (MEE charges on LLC
// misses, EPC paging, ecall transitions); "outside" configurations run
// it against plain memory. AES configurations really encrypt headers
// at the producer and decrypt them in the filter; plain configurations
// feed plaintext headers.
//
// Deviation note: this engine shards its containment forests by
// equality value, so equality-heavy workloads match substantially
// faster in absolute terms than the paper's root-scanning engine
// (internal/core's BenchmarkAblationSharding prices the difference).
// Relative orderings, cache/EPC knees, in/out ratios, and the ASPE gap
// — the shapes the paper argues from — are preserved.
package exp

import (
	"fmt"

	"scbr/internal/sgx"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

// Config parameterises all experiments.
type Config struct {
	// Corpus sizing (defaults reproduce the paper's ≈250 k entries).
	Seed       int64
	NumSymbols int
	PerSymbol  int

	// Sizes are the subscription database sizes measured (Figures
	// 5–7).
	Sizes []int
	// PubBatch is the number of publications matched per measurement
	// (the paper uses 1 000).
	PubBatch int
	// ASPEPubBudget caps subscription×publication work per ASPE
	// measurement so wall-clock time stays bounded; the harness uses
	// min(PubBatch, max(5, ASPEPubBudget/subs)) publications.
	ASPEPubBudget int

	// PadRecordTo sizes engine records; ~400 bytes reproduces the
	// paper's ≈437 B/subscription footprint including subscriber
	// records.
	PadRecordTo int
	// CacheAlign rounds records to cache-line multiples (the §6
	// "fitting into cache lines" layout; see the cache-alignment
	// ablation).
	CacheAlign bool

	// EPCBytes bounds the enclave page cache for "inside" runs.
	EPCBytes uint64

	// Fig8Subs and Fig8Step control the registration experiment
	// (paper: 500 000 subscriptions, one point per 5 000).
	Fig8Subs int
	Fig8Step int

	Cost simmem.CostModel
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		NumSymbols:    workload.DefaultNumSymbols,
		PerSymbol:     workload.DefaultQuotesPerSym,
		Sizes:         []int{1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000},
		PubBatch:      1_000,
		ASPEPubBudget: 3_000_000,
		PadRecordTo:   400,
		EPCBytes:      sgx.DefaultEPCBytes,
		Fig8Subs:      500_000,
		Fig8Step:      5_000,
		Cost:          simmem.DefaultCost(),
	}
}

// runtime bundles the shared corpus.
type runtime struct {
	cfg Config
	qs  *workload.QuoteSet
}

func newRuntime(cfg Config) (*runtime, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("exp: no database sizes configured")
	}
	for i := 1; i < len(cfg.Sizes); i++ {
		if cfg.Sizes[i] <= cfg.Sizes[i-1] {
			return nil, fmt.Errorf("exp: sizes must be strictly increasing")
		}
	}
	qs, err := workload.NewQuoteSet(cfg.Seed, cfg.NumSymbols, cfg.PerSymbol)
	if err != nil {
		return nil, err
	}
	return &runtime{cfg: cfg, qs: qs}, nil
}
