// Package scheme defines SCBR's pluggable matching-scheme abstraction:
// how subscriptions and publications are encoded outside the enclave,
// and how the router's partitioned slices store and match them inside
// it. The paper's headline result is a *comparison* of two such
// schemes — plaintext matching protected by SGX against ASPE-encrypted
// containment matching — and this package makes both first-class,
// wire-negotiated backends of the live data plane:
//
//   - "sgx-plain" (the default): subscriptions and headers travel as
//     SK-sealed plaintext encodings, are opened inside the enclave,
//     and are matched by the containment engine (internal/core). Full
//     expressiveness, federation-digest support.
//
//   - "aspe": the publisher encrypts subscriptions into sign-test
//     query vectors and publications into points under its secret
//     matrices (internal/aspe); the router stores and scans ciphertext
//     it can never open. No enclave trust needed for matching — and
//     orders of magnitude slower, the gap Figure 7 quantifies. No
//     prefix constraints, no strict bounds, no federation digests
//     (the router cannot evaluate §3.2 containment on ciphertext).
//
// A scheme has two halves. The publisher-side Codec holds the secrets
// and encodes; the router-side Slice (one per partition) stores and
// matches. The halves meet on the wire: the publisher announces its
// scheme ID and public parameters during attested provisioning, every
// registration/publication frame is tagged with the scheme ID, and
// routers reject mismatches with the broker's ErrSchemeMismatch.
package scheme

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/simmem"
)

// Built-in scheme IDs.
const (
	// Plain is the default scheme: plaintext matching inside the
	// enclave, blobs SK-sealed in transit (the paper's SCBR).
	Plain = "sgx-plain"
	// ASPE is the software-only encrypted baseline: asymmetric
	// scalar-product-preserving encryption (Wong et al.), matched on
	// ciphertext without enclave trust.
	ASPE = "aspe"
)

// Canonical maps a wire scheme tag to its canonical ID: the empty tag
// (a frame from a pre-scheme peer) means the default scheme.
func Canonical(name string) string {
	if name == "" {
		return Plain
	}
	return name
}

// Capabilities describe what a scheme's encodings can express and
// where its blobs may be evaluated. The broker consults them instead
// of switching on scheme names.
type Capabilities struct {
	// SealedExchange: registration and header blobs are SK-sealed on
	// the wire and must be opened inside the enclave before the slice
	// sees them. Schemes whose blobs are self-protecting ciphertext
	// (ASPE) clear it.
	SealedExchange bool
	// FederationDigests: the router can recover subscription specs and
	// fold them into §3.2 containment digests for federation. Schemes
	// that never reveal plaintext to the router cannot; federated
	// topologies reject such schemes at construction.
	FederationDigests bool
	// PrefixConstraints: the scheme can express string prefix
	// predicates (plain ASPE cannot — one of the expressiveness gaps
	// the paper holds against software-only schemes).
	PrefixConstraints bool
}

// SliceStats summarises one slice's store.
type SliceStats struct {
	Subscriptions int
	Bytes         uint64
}

// Slice is one partition's scheme-owned subscription store and
// matcher — the storage half the partitioned engine delegates to. The
// broker makes every call on a slice in its data plane, Stats included,
// under that slice's partition lock (and, where the deployment demands
// it, inside the slice's enclave); implementations need not be
// concurrency-safe.
type Slice interface {
	// Configure applies the scheme's wire-negotiated public parameters
	// (from provisioning, or from a sealed snapshot during restore).
	// Idempotent for identical parameters.
	Configure(params []byte) error
	// RegisterEncodedAssigned ingests one subscription in the scheme's
	// registration encoding under an ID the caller issues (the hub, or
	// state restore replaying the IDs clients already hold). The ID
	// must be non-zero and unused.
	RegisterEncodedAssigned(enc []byte, clientRef uint32, id uint64) error
	// Unregister removes a subscription by slice-local ID.
	Unregister(id uint64) error
	// MatchEncodedBatch matches a batch of publication headers in the
	// scheme's encoding in one store pass, appending encs[i]'s matches
	// to out[i] (len(out) must be at least len(encs)). An item that
	// fails to decode or validate contributes nothing to its slot, under
	// the wire's fire-and-forget publish semantics, and does not affect
	// the other items: each item's results are exactly what a batch of
	// that item alone appends, in the same order. The error return is
	// reserved for whole-store failures (an unconfigured store), where
	// every item would have failed identically.
	// Both schemes pass over the store once per chunk of 64 items rather
	// than once per item, the items still live on the path one bit each
	// of a mask: ASPE scans its subscriptions, the Bloom prefilter and
	// then each sign test clearing bits, and reads a ciphertext vector
	// once while any item is live on it; sgx-plain walks each
	// containment forest once. A stored line is therefore metered once
	// per pass, while per-item compute is still charged per item.
	MatchEncodedBatch(encs [][]byte, out [][]core.MatchResult) error
	// Stats summarises the store.
	Stats() SliceStats
	// Accessor exposes the slice's metered memory (experiment and
	// observability meters).
	Accessor() simmem.Accessor
}

// Codec is the publisher-side half of a scheme: it holds whatever
// secrets the scheme needs and encodes subscriptions and publication
// headers into the scheme's wire form. Safe for concurrent use — the
// publisher encodes from concurrent client-serving goroutines.
type Codec interface {
	// Name returns the scheme ID stamped on wire frames.
	Name() string
	// Capabilities mirrors the backend's capability flags.
	Capabilities() Capabilities
	// Params returns the public parameter blob routers need to
	// configure their slices (nil when the scheme has none). Carried
	// inside the attested provisioning bundle.
	Params() ([]byte, error)
	// EncodeSubscription validates and encodes one subscription spec.
	EncodeSubscription(spec pubsub.SubscriptionSpec) ([]byte, error)
	// EncodeEvent encodes one publication header.
	EncodeEvent(spec pubsub.EventSpec) ([]byte, error)
}

// Options parameterise codec construction. Scheme-specific: the plain
// scheme ignores all of them.
type Options struct {
	// Attrs is the fixed attribute universe (ASPE: vector positions;
	// required, its dimensionality is 2·len(Attrs)+2).
	Attrs []string
	// Seed seeds the scheme's secret material deterministically; 0
	// draws fresh randomness.
	Seed int64
	// Scales fixes per-attribute normalisation divisors (ASPE: public
	// parameters balancing the sign-test tolerance across magnitudes).
	Scales map[string]float64
	// Calibration derives scales from sample events (largest observed
	// magnitude per numeric attribute), after Scales is applied.
	Calibration []pubsub.EventSpec
}

// Option adjusts codec construction.
type Option func(*Options)

// WithAttrs fixes the scheme's attribute universe.
func WithAttrs(names ...string) Option {
	return func(o *Options) { o.Attrs = append(o.Attrs, names...) }
}

// WithSeed seeds the scheme's secret material deterministically.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithScale fixes one attribute's normalisation divisor.
func WithScale(name string, scale float64) Option {
	return func(o *Options) {
		if o.Scales == nil {
			o.Scales = make(map[string]float64)
		}
		o.Scales[name] = scale
	}
}

// WithCalibration calibrates scales from sample events.
func WithCalibration(sample ...pubsub.EventSpec) Option {
	return func(o *Options) { o.Calibration = append(o.Calibration, sample...) }
}

// Resolve folds options onto their zero state.
func Resolve(opts []Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Backend is one registered matching scheme: capability flags plus the
// factories for its two halves.
type Backend struct {
	// Name is the scheme ID carried on the wire.
	Name string
	// Caps are the scheme's capability flags.
	Caps Capabilities
	// Footprint models the scheme's slice-store memory cost — measured
	// constants, pinned against real stores by the scheme's tests.
	Footprint FootprintModel
	// NewCodec builds the publisher-side half.
	NewCodec func(opts Options) (Codec, error)
	// NewSlice builds one partition's router-side store over the given
	// (typically enclave) memory. The schema is the router's shared
	// attribute intern table; opts carry engine tuning the scheme may
	// ignore.
	NewSlice func(acc simmem.Accessor, schema *pubsub.Schema, opts core.Options) (Slice, error)
}

// ErrUnknown reports a scheme ID no backend is registered for.
var ErrUnknown = errors.New("scheme: unknown matching scheme")

var (
	regMu    sync.RWMutex
	registry = make(map[string]*Backend)
)

// Register adds a backend to the registry. Registering a duplicate
// name is a programming error and panics (registration happens from
// package init).
func Register(b *Backend) {
	if b == nil || b.Name == "" || b.NewCodec == nil || b.NewSlice == nil {
		panic("scheme: incomplete backend registration")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name]; dup {
		panic(fmt.Sprintf("scheme: backend %q registered twice", b.Name))
	}
	registry[b.Name] = b
}

// Lookup resolves a scheme ID ("" means the default) to its backend.
func Lookup(name string) (*Backend, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[Canonical(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknown, name, namesLocked())
	}
	return b, nil
}

// Names lists the registered scheme IDs, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewCodec resolves a scheme and builds its publisher-side codec.
func NewCodec(name string, opts ...Option) (Codec, error) {
	b, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return b.NewCodec(Resolve(opts))
}
