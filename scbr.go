// Package scbr is the public API of the SCBR reproduction: a secure
// content-based routing engine that runs its filtering logic inside a
// (simulated) Intel SGX enclave, after Pires, Pasin, Felber and
// Fetzer, "Secure Content-Based Routing Using Intel Software Guard
// Extensions", Middleware 2016.
//
// The v1 surface is context-aware and option-based:
//
//   - constructors take positional identity arguments plus functional
//     Options — NewRouter(dev, quoter, image, signer,
//     WithSwitchless(), WithEPC(n), WithPadding(n)) — instead of
//     positional config structs,
//
//   - every blocking or network-touching operation takes a
//     context.Context — Router.Serve(ctx, l), Publisher.Publish(ctx,
//     header, payload), Client.Subscribe(ctx, spec) — and
//     cancellation propagates into the broker's connection loops,
//
//   - Subscribe returns a first-class Subscription handle with
//     Next(ctx)/Deliveries()/Consume iteration and
//     Unsubscribe(ctx),
//
//   - Publisher.PublishBatch sends a batch of events as one frame and
//     one enclave crossing per matcher slice; publications are queued
//     and written behind the caller, and Publisher.Flush waits for
//     them,
//
//   - WithPartitions(k) shards the router's data plane across k
//     enclave matcher slices (§3.4 StreamHub partitioning): matching
//     parallelises, each enclave holds 1/k of the database, and every
//     listening client is served by its own bounded delivery queue so
//     a slow consumer never stalls the data plane; the slice fleet is
//     elastic — Router.Repartition(ctx, k) grows or shrinks it online,
//     live-migrating subscriptions between enclaves without dropping
//     matches (WithPlacementShards/WithPlacementSeed tune the placement
//     map),
//
//   - WithRouterID/WithPeers/WithPeerVerifier federate routers into
//     an overlay: peers dial each other over mutually attested links,
//     exchange containment-compacted subscription digests, and
//     forward publications hop by hop only toward routers with
//     matching downstream subscribers, loop-safe on cyclic
//     topologies (origin+sequence duplicate suppression plus a hop
//     TTL); Router.FederationSnapshot exposes the overlay counters,
//
//   - failures wrap the typed sentinels of errors.go (ErrRevoked,
//     ErrNotProvisioned, ErrAttestationFailed, ErrClosed, ...),
//     matchable with errors.Is even across the wire.
//
// The package re-exports the pieces an application needs:
//
//   - the data model: attribute Values, Predicates, SubscriptionSpecs
//     and EventSpecs (publication headers), plus ParseSpec for the
//     textual subscription syntax of the paper's examples,
//   - the three deployment roles of Figure 3: Router (the filtering
//     engine inside an enclave on untrusted infrastructure), Publisher
//     (the service provider owning the keys and admission), and Client
//     (a consumer),
//   - the simulated SGX platform (Device, Quoter, attestation Service)
//     that stands in for real hardware — internal/sgx's package
//     comment describes the substitution,
//   - the embedded matching engine (Engine) for applications that want
//     content-based filtering without the distributed protocol,
//   - the Table 1 workload generators used by the evaluation.
//
// A minimal deployment (see examples/quickstart for the runnable
// version):
//
//	dev, _ := scbr.NewDevice(nil)
//	quoter, _ := scbr.NewQuoter(dev, "my-platform")
//	router, _ := scbr.NewRouter(dev, quoter, image, signerKey.Public())
//	go router.Serve(ctx, listener)
//	// ... attest + provision via a Publisher, then:
//	sub, _ := client.Subscribe(ctx, spec)
//	d, _ := sub.Next(ctx)
package scbr

import (
	"crypto/ecdh"
	"io"

	"scbr/internal/attest"
	"scbr/internal/broker"
	"scbr/internal/core"
	"scbr/internal/federation"
	"scbr/internal/placement"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

// Matching schemes. The paper's central claim is a comparison of
// privacy-preserving matching approaches; both are first-class,
// wire-negotiated backends of the data plane, selected with
// WithScheme on the Router and the Publisher (which must agree — the
// handshake rejects mismatches with ErrSchemeMismatch).
const (
	// SchemePlain (default): plaintext matching inside the enclave;
	// subscriptions and headers travel SK-sealed and are opened only
	// inside the router's enclaves. Full predicate expressiveness and
	// federation-digest support.
	SchemePlain = scheme.Plain
	// SchemeASPE: asymmetric scalar-product-preserving encryption (the
	// paper's software-only baseline). The publisher encrypts, the
	// router matches ciphertext it can never open — no enclave trust
	// needed, at orders-of-magnitude matching cost. No prefix
	// predicates, closed bounds only, no federation digests.
	SchemeASPE = scheme.ASPE
)

// SchemeCapabilities describes what a matching scheme's encodings can
// express and where they may be evaluated (Router.SchemeCapabilities,
// LookupScheme).
type SchemeCapabilities = scheme.Capabilities

// Schemes lists the registered matching-scheme IDs.
func Schemes() []string { return scheme.Names() }

// LookupScheme reports a scheme's capability flags ("" names the
// default scheme).
func LookupScheme(name string) (SchemeCapabilities, error) {
	b, err := scheme.Lookup(name)
	if err != nil {
		return SchemeCapabilities{}, err
	}
	return b.Caps, nil
}

// Data model.
type (
	// Value is a typed attribute value (int, float, or string).
	Value = pubsub.Value
	// Predicate is one constraint of a subscription.
	Predicate = pubsub.Predicate
	// SubscriptionSpec is a conjunction of predicates.
	SubscriptionSpec = pubsub.SubscriptionSpec
	// EventSpec is a publication header: named attribute values.
	EventSpec = pubsub.EventSpec
	// NamedValue is one attribute of an EventSpec.
	NamedValue = pubsub.NamedValue
	// Op is a predicate operator.
	Op = pubsub.Op
)

// Predicate operators.
const (
	OpEq      = pubsub.OpEq
	OpLt      = pubsub.OpLt
	OpLe      = pubsub.OpLe
	OpGt      = pubsub.OpGt
	OpGe      = pubsub.OpGe
	OpBetween = pubsub.OpBetween
)

// Value kinds.
const (
	KindInt    = pubsub.KindInt
	KindFloat  = pubsub.KindFloat
	KindString = pubsub.KindString
)

// Value constructors and parsing.
var (
	// Int builds an integer value.
	Int = pubsub.Int
	// Float builds a floating-point value.
	Float = pubsub.Float
	// Str builds a string value.
	Str = pubsub.Str
	// ParseSpec parses 'symbol = "HAL", price < 50' style expressions.
	ParseSpec = pubsub.ParseSpec
)

// Simulated SGX platform.
type (
	// Device models one SGX-capable CPU package.
	Device = sgx.Device
	// Enclave is a launched enclave instance.
	Enclave = sgx.Enclave
	// Quoter converts enclave reports into attestation quotes.
	Quoter = attest.Quoter
	// AttestationService verifies quotes (the IAS stand-in).
	AttestationService = attest.Service
	// Identity pins an enclave measurement for provisioning.
	Identity = attest.Identity
)

// DefaultEPCBytes is the usable enclave page cache size of the paper's
// platform (~93 MB).
const DefaultEPCBytes = sgx.DefaultEPCBytes

// NewDevice creates a simulated SGX device with the calibrated cost
// model. A deterministic seed may be supplied for tests; nil draws a
// random device key.
func NewDevice(seed []byte) (*Device, error) {
	return sgx.NewDevice(seed, simmem.DefaultCost())
}

// NewQuoter provisions the platform quoting identity for a device.
func NewQuoter(dev *Device, platformID string) (*Quoter, error) {
	return attest.NewQuoter(dev, platformID)
}

// NewAttestationService returns an empty quote-verification service;
// register genuine platforms with RegisterPlatform.
func NewAttestationService() *AttestationService { return attest.NewService() }

// Deployment roles (Figure 3 of the paper).
type (
	// Router hosts the filtering engine inside an enclave.
	Router = broker.Router
	// Publisher is the service provider: key owner, admission
	// controller, and data source.
	Publisher = broker.Publisher
	// Client is a data consumer.
	Client = broker.Client
	// DataPlaneStats summarises a router's partitioned index: the
	// per-slice subscription counts and summed store bytes of
	// Router.SliceFootprints, each slice read under its partition lock.
	DataPlaneStats = broker.DataPlaneStats
	// PlacementSnapshot is a router's shard→slice placement table and
	// migration counters (Router.PlacementSnapshot); Router.Repartition
	// resizes the slice fleet online and returns the new snapshot.
	PlacementSnapshot = placement.Snapshot
	// SliceFootprint is one matcher slice's EPC accounting — store
	// bytes, budget, and resident-set high-water mark
	// (Router.SliceFootprints). Router.RecommendPartitions sizes the
	// fleet from these; Repartition(ctx, 0) applies the recommendation.
	SliceFootprint = broker.SliceFootprint
	// FederationCounters snapshots a router's overlay activity: live
	// peers, digest sizes, and forwarded/withheld/suppressed tallies
	// (Router.FederationSnapshot).
	FederationCounters = federation.Counters
	// Delivery is one decrypted payload received by a client.
	Delivery = broker.Delivery
	// ClientRegistry is the publisher's admission database.
	ClientRegistry = broker.ClientRegistry
	// OverflowPolicy is the router's slow-consumer policy
	// (WithOverflowPolicy): what happens when a listening client's
	// bounded delivery queue is full.
	OverflowPolicy = broker.OverflowPolicy
	// DeliveryCounters snapshots a router's delivery-layer loss and
	// recovery activity (Router.DeliverySnapshot): overflow drops,
	// slow-consumer disconnects, cursor replays, and resume gaps.
	DeliveryCounters = broker.DeliveryCounters
	// DeliveryLatency is a router's enqueue→write delivery-latency
	// percentile snapshot, total and per client
	// (Router.DeliveryLatencySnapshot).
	DeliveryLatency = broker.DeliveryLatency
	// LatencyQuantiles is one latency distribution reduced to
	// p50/p95/p99/max, in nanoseconds.
	LatencyQuantiles = broker.LatencyQuantiles
)

// Slow-consumer overflow policies (see WithOverflowPolicy).
const (
	// OverflowDropOldest (default): evict the oldest queued frame; the
	// client recovers it by resuming with its delivery cursor.
	OverflowDropOldest = broker.OverflowDropOldest
	// OverflowDisconnect: sever the stalled client's connection (the
	// legacy policy).
	OverflowDisconnect = broker.OverflowDisconnect
	// OverflowPause: block the delivery stage until the client drains —
	// lossless, at the cost of throttling the publication stream.
	OverflowPause = broker.OverflowPause
)

// ParseOverflowPolicy maps "drop-oldest", "disconnect", or "pause"
// onto the corresponding policy (the CLIs' -overflow flag values).
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	return broker.ParseOverflowPolicy(s)
}

// NewRouter launches the routing enclave on dev from the measured
// image signed by signer (publishers pin both during attestation) and
// applies the given options:
//
//	router, err := scbr.NewRouter(dev, quoter, image, signer.Public(),
//	    scbr.WithSwitchless(), scbr.WithEPC(32<<20), scbr.WithPadding(400))
func NewRouter(dev *Device, quoter *Quoter, image []byte, signer *ecdh.PublicKey, opts ...Option) (*Router, error) {
	return broker.NewRouter(dev, quoter, resolve(opts).routerConfig(image, signer))
}

// NewPublisher creates a publisher that provisions secrets only into
// enclaves matching id, as vouched for by svc. WithScheme selects the
// matching scheme the publisher encodes under (default SchemePlain);
// other options are ignored, so option sets can be shared with
// NewRouter.
func NewPublisher(svc *AttestationService, id Identity, opts ...Option) (*Publisher, error) {
	s := resolve(opts)
	codec, err := scheme.NewCodec(s.scheme, s.schemeOpts...)
	if err != nil {
		return nil, err
	}
	return broker.NewPublisherWithCodec(svc, id, codec)
}

// NewClient creates a consumer with a fresh response key pair.
func NewClient(id string) (*Client, error) { return broker.NewClient(id) }

// Embedded engine for applications that want SCBR's matching without
// the distributed protocol.
type (
	// Engine is the containment-based matching engine.
	Engine = core.Engine
	// MatchResult identifies one matching subscription.
	MatchResult = core.MatchResult
)

// NewPlainEngine builds an engine over plain (non-enclave) simulated
// memory — the paper's "outside" configuration.
func NewPlainEngine(opts ...Option) (*Engine, error) {
	acc := simmem.NewPlainAccessor(simmem.DefaultCost())
	return core.NewEngine(acc, pubsub.NewSchema(), resolve(opts).engineOptions())
}

// NewEnclaveEngine builds an engine inside a freshly launched enclave
// on dev and returns both.
func NewEnclaveEngine(dev *Device, opts ...Option) (*Engine, *Enclave, error) {
	s := resolve(opts)
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		return nil, nil, err
	}
	enclave, err := dev.Launch([]byte("scbr embedded engine image"), signer.Public(), s.enclaveConfig())
	if err != nil {
		return nil, nil, err
	}
	engine, err := core.NewEngine(enclave.Memory(), pubsub.NewSchema(), s.engineOptions())
	if err != nil {
		enclave.Terminate()
		return nil, nil, err
	}
	return engine, enclave, nil
}

// NewSplitEngine builds an engine inside a freshly launched enclave
// using the split-memory layout of the paper's §6 future work: the
// engine keeps a plaintext working set of at most cacheBytes inside
// the enclave and seals colder pages to untrusted memory itself,
// instead of relying on hardware EPC paging. Use it for subscription
// databases expected to outgrow the EPC — past that point it degrades
// several times more gracefully than the default layout
// (exp.AblationSplit; `scbr-bench -split` prints the sweep).
func NewSplitEngine(dev *Device, cacheBytes uint64, opts ...Option) (*Engine, *Enclave, error) {
	s := resolve(opts)
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		return nil, nil, err
	}
	enclave, err := dev.Launch([]byte("scbr embedded split engine image"), signer.Public(), s.enclaveConfig())
	if err != nil {
		return nil, nil, err
	}
	acc, err := enclave.SplitMemory(cacheBytes)
	if err != nil {
		enclave.Terminate()
		return nil, nil, err
	}
	engine, err := core.NewEngine(acc, pubsub.NewSchema(), s.engineOptions())
	if err != nil {
		enclave.Terminate()
		return nil, nil, err
	}
	return engine, enclave, nil
}

// Keys.
type (
	// KeyPair is an X25519 key pair (the publisher's PK/PK⁻¹, a
	// client's response key, or an enclave signing key).
	KeyPair = scrypto.KeyPair
)

// NewKeyPair generates an X25519 key pair; src defaults to
// crypto/rand when nil.
func NewKeyPair(src io.Reader) (*KeyPair, error) { return scrypto.NewKeyPair(src) }

// Simulated-machine utilities: every engine meters its memory traffic
// against the calibrated model of the paper's evaluation machine, and
// experiments read the counters through these re-exports.
type (
	// CostModel holds the calibrated cycle costs (see internal/simmem).
	CostModel = simmem.CostModel
	// MemoryCounters accumulates the simulator's event counts (cycles,
	// LLC hits/misses, page faults, transitions, ...).
	MemoryCounters = simmem.Counters
)

// DefaultCostModel returns the cycle model calibrated to the paper's
// machine (3.4 GHz i7-6700, 8 MB LLC, SGX v1).
func DefaultCostModel() CostModel { return simmem.DefaultCost() }

// Workloads (Table 1 of the paper).
type (
	// Workload describes one Table 1 dataset.
	Workload = workload.Spec
	// WorkloadGenerator synthesises subscriptions and publications.
	WorkloadGenerator = workload.Generator
	// QuoteSet is the synthetic stock-quote corpus.
	QuoteSet = workload.QuoteSet
)

// Table1Workloads returns the paper's nine workload specifications.
func Table1Workloads() []Workload { return workload.Table1() }

// WorkloadByName looks up a Table 1 workload.
func WorkloadByName(name string) (Workload, error) { return workload.SpecByName(name) }

// NewQuoteSet generates a deterministic synthetic quote corpus.
func NewQuoteSet(seed int64, numSymbols, perSymbol int) (*QuoteSet, error) {
	return workload.NewQuoteSet(seed, numSymbols, perSymbol)
}

// QuoteAttrs returns the quote corpus attribute universe at the given
// workload attribute factor — what a fixed-universe scheme
// (WithSchemeAttrs) needs to cover a Table 1 feed.
func QuoteAttrs(factor int) []string { return workload.QuoteAttrs(factor) }

// NewWorkloadGenerator builds a generator for a workload over a corpus.
func NewWorkloadGenerator(spec Workload, qs *QuoteSet, seed int64) (*WorkloadGenerator, error) {
	return workload.NewGenerator(spec, qs, seed)
}
