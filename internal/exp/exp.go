// Package exp drives the reproduction of the paper's evaluation: one
// entry point per figure/table, each returning typed rows that
// cmd/scbr-bench prints and the package's tests assert shapes on.
//
// Methodology (matching §4): the subscription database is populated
// incrementally to each target size; at every size a batch of
// publications is matched and the average simulated matching time per
// operation is reported. "Inside" configurations run the identical
// engine code against enclave memory (MEE charges on LLC misses, EPC
// paging, ecall transitions); "outside" configurations run it against
// plain memory. AES configurations really encrypt headers at the
// producer and decrypt them in the filter; plain configurations feed
// pre-decoded events.
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

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
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

// engineKind selects one of the four Figure 5 configurations.
type engineKind int

const (
	outPlain engineKind = iota + 1
	outAES
	inPlain
	inAES
)

func (k engineKind) enclave() bool { return k == inPlain || k == inAES }
func (k engineKind) aes() bool     { return k == outAES || k == inAES }

// engineRun is one engine instance under measurement.
type engineRun struct {
	kind    engineKind
	cfg     Config
	engine  *core.Engine
	enclave *sgx.Enclave // nil outside
	sk      *scrypto.SymmetricKey

	// Publication forms: interned events for plain runs, encrypted
	// headers for AES runs.
	events  []*pubsub.Event
	headers [][]byte

	scratch []core.MatchResult
}

// newEngineRun builds an engine in the requested configuration.
func newEngineRun(cfg Config, kind engineKind, seed int64) (*engineRun, error) {
	r := &engineRun{kind: kind, cfg: cfg}
	var acc simmem.Accessor
	if kind.enclave() {
		dev, err := sgx.NewDevice([]byte(fmt.Sprintf("exp-device-%d-%d", kind, seed)), cfg.Cost)
		if err != nil {
			return nil, err
		}
		signer, err := scrypto.NewKeyPair(nil)
		if err != nil {
			return nil, err
		}
		r.enclave, err = dev.Launch([]byte("scbr experiment engine"), signer.Public(), sgx.EnclaveConfig{EPCBytes: cfg.EPCBytes})
		if err != nil {
			return nil, err
		}
		acc = r.enclave.Memory()
	} else {
		acc = simmem.NewPlainAccessor(cfg.Cost)
	}
	engine, err := core.NewEngine(acc, pubsub.NewSchema(), core.Options{PadRecordTo: cfg.PadRecordTo, CacheAlign: cfg.CacheAlign})
	if err != nil {
		return nil, err
	}
	r.engine = engine
	if kind.aes() {
		sk, err := scrypto.NewSymmetricKey(nil)
		if err != nil {
			return nil, err
		}
		r.sk = sk
	}
	return r, nil
}

// register adds subscription specs to the engine, one ecall per
// subscription (the protocol path: each registration arrives as its
// own message).
func (r *engineRun) register(specs []pubsub.SubscriptionSpec) error {
	for i, spec := range specs {
		var err error
		if r.enclave != nil {
			err = r.enclave.Ecall(func() error {
				_, e := r.engine.Register(spec, uint32(i))
				return e
			})
		} else {
			_, err = r.engine.Register(spec, uint32(i))
		}
		if err != nil {
			return fmt.Errorf("exp: registering subscription %d: %w", i, err)
		}
	}
	return nil
}

// registerBulk loads a whole window of subscriptions inside a single
// ecall, isolating the memory-system cost of registration from the
// call-gate cost — the methodology of the paper's Figure 8, which
// instruments the registration code itself.
func (r *engineRun) registerBulk(specs []pubsub.SubscriptionSpec) error {
	if r.enclave == nil {
		return r.register(specs)
	}
	return r.enclave.Ecall(func() error {
		for i, spec := range specs {
			if _, err := r.engine.Register(spec, uint32(i)); err != nil {
				return fmt.Errorf("exp: registering subscription %d: %w", i, err)
			}
		}
		return nil
	})
}

// preparePublications fixes the publication batch in the form the
// configuration consumes.
func (r *engineRun) preparePublications(pubs []pubsub.EventSpec) error {
	if r.kind.aes() {
		r.headers = make([][]byte, 0, len(pubs))
		for _, p := range pubs {
			raw, err := pubsub.EncodeEventSpec(p)
			if err != nil {
				return err
			}
			enc, err := scrypto.Seal(r.sk, raw)
			if err != nil {
				return err
			}
			r.headers = append(r.headers, enc)
		}
		return nil
	}
	r.events = make([]*pubsub.Event, 0, len(pubs))
	for _, p := range pubs {
		ev, err := p.Intern(r.engine.Schema())
		if err != nil {
			return err
		}
		r.events = append(r.events, ev)
	}
	return nil
}

// matchBatch runs the whole batch once and returns the average
// simulated microseconds per matching operation plus the counter
// delta.
func (r *engineRun) matchBatch() (float64, simmem.Counters, error) {
	meter := r.engine.Accessor().Meter()
	before := meter.C
	n := 0
	if r.kind.aes() {
		for _, header := range r.headers {
			op := func() error {
				meter.ChargeAES(len(header))
				raw, err := scrypto.Open(r.sk, header)
				if err != nil {
					return err
				}
				spec, err := pubsub.DecodeEventSpec(raw)
				if err != nil {
					return err
				}
				ev, err := spec.Intern(r.engine.Schema())
				if err != nil {
					return err
				}
				r.scratch, err = r.engine.MatchAppend(ev, r.scratch[:0])
				return err
			}
			var err error
			if r.enclave != nil {
				err = r.enclave.Ecall(op)
			} else {
				err = op()
			}
			if err != nil {
				return 0, simmem.Counters{}, err
			}
			n++
		}
	} else {
		for _, ev := range r.events {
			op := func() error {
				var err error
				r.scratch, err = r.engine.MatchAppend(ev, r.scratch[:0])
				return err
			}
			var err error
			if r.enclave != nil {
				err = r.enclave.Ecall(op)
			} else {
				err = op()
			}
			if err != nil {
				return 0, simmem.Counters{}, err
			}
			n++
		}
	}
	delta := meter.C.Sub(before)
	micros := r.cfg.Cost.Micros(delta.Cycles) / float64(n)
	return micros, delta, nil
}
