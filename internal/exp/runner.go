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

// memory is where a runner's slice keeps its store.
type memory int

const (
	// untrusted is plain memory outside any enclave.
	untrusted memory = iota
	// epcMemory is an enclave heap the hardware pages through the EPC.
	epcMemory
	// splitMemory is an enclave that pages its store at user level: a
	// plaintext budget of cfg.EPCBytes inside, sealed pages outside
	// (the §6 "enclaved and external parts").
	splitMemory
)

// runner is the harness's one setup: one scheme slice — the store a
// router partition holds — in untrusted, EPC-paged or split memory,
// driven through the calls the router makes. Subscriptions go in with
// RegisterEncodedAssigned under IDs the runner issues; publications
// are matched with MatchRecords, sealed headers opened first with
// one scrypto.Opener and charged with ChargeAES, as the router's slice
// worker does.
type runner struct {
	cfg    Config
	codec  scheme.Codec
	slice  scheme.Slice
	meter  *simmem.Meter
	schema *pubsub.Schema
	// enclave is nil in untrusted memory.
	enclave *sgx.Enclave
	// sealer and opener are nil when headers travel in plaintext.
	sealer *scrypto.Sealer
	opener *scrypto.Opener
	lastID uint64

	// headers is the publication batch prepare encoded.
	headers [][]byte
	// item, buf and recs are matchOne's scratch.
	item [1][]byte
	buf  []byte
	recs []core.Record
}

// newRunner builds codec's slice in mem over schema. With sealed, the
// runner seals headers under a key of its own and opens them in the
// slice's enclave before matching.
func newRunner(cfg Config, mem memory, sealed bool, codec scheme.Codec, schema *pubsub.Schema) (*runner, error) {
	backend, err := scheme.Lookup(codec.Name())
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, codec: codec, schema: schema}
	var acc simmem.Accessor = simmem.NewPlainAccessor(cfg.Cost)
	if mem != untrusted {
		dev, err := sgx.NewDevice([]byte("exp-device"), cfg.Cost)
		if err != nil {
			return nil, err
		}
		signer, err := scrypto.NewKeyPair(nil)
		if err != nil {
			return nil, err
		}
		if r.enclave, err = dev.Launch([]byte("scbr experiment slice"), signer.Public(), sgx.EnclaveConfig{EPCBytes: cfg.EPCBytes}); err != nil {
			return nil, err
		}
		acc = r.enclave.Memory()
		if mem == splitMemory {
			if acc, err = r.enclave.SplitMemory(cfg.EPCBytes); err != nil {
				return nil, err
			}
		}
	}
	if r.slice, err = backend.NewSlice(acc, schema, core.Options{PadRecordTo: cfg.PadRecordTo, CacheAlign: cfg.CacheAlign}); err != nil {
		return nil, err
	}
	r.meter = acc.Meter()
	params, err := codec.Params()
	if err != nil {
		return nil, err
	}
	if err := r.Ecall(func() error { return r.slice.Configure(params) }); err != nil {
		return nil, err
	}
	if sealed {
		sk, err := scrypto.NewSymmetricKey(nil)
		if err != nil {
			return nil, err
		}
		if r.sealer, err = scrypto.NewSealer(sk); err != nil {
			return nil, err
		}
		if r.opener, err = scrypto.NewOpener(sk); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// plainRunner is newRunner for an sgx-plain slice over a schema of its
// own.
func plainRunner(cfg Config, mem memory, sealed bool) (*runner, error) {
	codec, err := scheme.NewCodec(scheme.Plain)
	if err != nil {
		return nil, err
	}
	return newRunner(cfg, mem, sealed, codec, pubsub.NewSchema())
}

// Ecall runs fn as one entry into the slice's enclave, charging the
// round trip to the meter the slice reads: split memory has a meter of
// its own, not the enclave heap's that sgx.Enclave.Ecall charges. In
// untrusted memory there is no border, and fn just runs.
func (r *runner) Ecall(fn func() error) error {
	if r.enclave != nil {
		r.meter.ChargeTransition()
	}
	return fn()
}

// entries runs item(0), …, item(n-1), per items to an enclave entry.
func (r *runner) entries(n, per int, item func(i int) error) error {
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		err := r.Ecall(func() error {
			for i := lo; i < hi; i++ {
				if err := item(i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// register encodes specs with the runner's codec and registers them,
// per subscriptions to an enclave entry — 1 when each arrives as its
// own message, len(specs) for a window in one entry, which prices the
// registration code rather than the call gate (Figure 8's
// methodology) — and returns the slice's counter delta.
func (r *runner) register(specs []pubsub.SubscriptionSpec, per int) (simmem.Counters, error) {
	encs := make([][]byte, len(specs))
	for i, spec := range specs {
		enc, err := r.codec.EncodeSubscription(spec)
		if err != nil {
			return simmem.Counters{}, fmt.Errorf("exp: encoding subscription %d: %w", i, err)
		}
		encs[i] = enc
	}
	before := r.meter.C
	err := r.entries(len(encs), per, func(i int) error { return r.registerOne(encs[i]) })
	return r.meter.C.Sub(before), err
}

// registerOne registers one encoded subscription under the next ID.
//
// scbr:vet enclave-boundary: runs only as an item of entries, inside the runner.Ecall that charges the entry
func (r *runner) registerOne(enc []byte) error {
	r.lastID++
	if err := r.slice.RegisterEncodedAssigned(enc, uint32(r.lastID), r.lastID); err != nil {
		return fmt.Errorf("exp: registering subscription %d: %w", r.lastID, err)
	}
	return nil
}

// prepare encodes the publication batch with the runner's codec and,
// when headers are sealed, seals each as a publisher does. An unsealed
// batch is also interned into the slice's schema now: attribute IDs
// follow the order names are first seen, and the figures have always
// interned their plaintext batch before registering, so a runner
// prepared before it registers keeps their numbers.
func (r *runner) prepare(pubs []pubsub.EventSpec) error {
	r.headers = make([][]byte, 0, len(pubs))
	for _, p := range pubs {
		h, err := r.codec.EncodeEvent(p)
		if err != nil {
			return err
		}
		if r.sealer != nil {
			h, err = r.sealer.Seal(h)
		} else {
			_, err = p.Intern(r.schema)
		}
		if err != nil {
			return err
		}
		r.headers = append(r.headers, h)
	}
	return nil
}

// match matches headers, per headers to an enclave entry, and returns
// the slice's counter delta. Each header is a MatchRecords call
// of its own: the figures price one matching operation per
// publication, as the paper measures them, and per amortises the
// enclave border, not the store pass.
func (r *runner) match(headers [][]byte, per int) (simmem.Counters, error) {
	before := r.meter.C
	err := r.entries(len(headers), per, func(i int) error { return r.matchOne(headers[i]) })
	return r.meter.C.Sub(before), err
}

// matchAll matches the prepared batch, each publication in an enclave
// entry of its own, and returns µs per publication and the delta.
func (r *runner) matchAll() (float64, simmem.Counters, error) {
	delta, err := r.match(r.headers, 1)
	return r.perOp(delta, len(r.headers)), delta, err
}

// matchOne opens a sealed header, charging the AES pass to the slice's
// meter, and matches it: the router's matchSliceBatch on a group of
// one.
//
// scbr:vet enclave-boundary: runs only as an item of entries, inside the runner.Ecall that charges the entry, or as the sgx.Enclave.ServeRing handler, whose one transition ServeRing charges
func (r *runner) matchOne(header []byte) error {
	item := header
	if r.opener != nil {
		plain, err := r.opener.OpenAppend(header, r.buf[:0])
		if err != nil {
			return err
		}
		r.meter.ChargeAES(len(header))
		r.buf, item = plain, plain
	}
	r.item[0] = item
	var err error
	r.recs, err = r.slice.MatchRecords(r.item[:], r.recs[:0])
	return err
}

// perOp is the simulated µs per operation of n operations that cost
// delta.
func (r *runner) perOp(delta simmem.Counters, n int) float64 {
	return r.cfg.Cost.Micros(delta.Cycles) / float64(n)
}

// mb is the slice's store size in MB.
func (r *runner) mb() float64 { return float64(r.slice.Stats().Bytes) / (1 << 20) }

// sweep registers total subscriptions from gen into every runner in
// windows of step, one enclave entry per window, and hands window each
// window's cumulative count and the runners' counter deltas — the
// registration sweep of Figure 8, the split-memory ablation and the
// paging cliff.
func sweep(gen *workload.Generator, total, step int, runs []*runner, window func(subs int, deltas []simmem.Counters)) error {
	if total <= 0 || step <= 0 || step > total {
		return fmt.Errorf("exp: invalid registration sweep: %d subscriptions in windows of %d", total, step)
	}
	deltas := make([]simmem.Counters, len(runs))
	for done := 0; done < total; done += step {
		batch := gen.Subscriptions(step)
		for i, r := range runs {
			var err error
			if deltas[i], err = r.register(batch, step); err != nil {
				return err
			}
		}
		window(done+step, deltas)
	}
	return nil
}
