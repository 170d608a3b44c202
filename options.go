package scbr

import (
	"crypto/ecdh"
	"time"

	"scbr/internal/attest"
	"scbr/internal/broker"
	"scbr/internal/core"
	"scbr/internal/scheme"
	"scbr/internal/sgx"
)

// Option configures a Router or an embedded Engine. All constructors
// of the v1 surface accept a trailing list of options; an option that
// does not apply to the constructed artefact (e.g. WithSwitchless on a
// plain engine) is ignored, so option sets can be shared between
// deployment roles.
type Option func(*settings)

// settings is the resolved option state; zero values select the
// paper's defaults.
type settings struct {
	epcBytes         uint64
	padRecordTo      int
	partitions       int
	placementShards  int
	placementSeed    int64
	switchless       bool
	deliveryQueueLen int
	overflowPolicy   broker.OverflowPolicy
	replayRingLen    int
	resumeWindow     time.Duration
	drainTimeout     time.Duration
	isvProdID        uint16
	isvSVN           uint16
	debug            bool

	routerID       string
	peers          []string
	peerVerifier   *attest.Service
	peerIdentities []attest.Identity
	federationTTL  int

	scheme     string
	schemeOpts []scheme.Option
}

func resolve(opts []Option) settings {
	var s settings
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// routerConfig lowers the resolved options onto the broker's config.
func (s settings) routerConfig(image []byte, signer *ecdh.PublicKey) broker.RouterConfig {
	return broker.RouterConfig{
		EnclaveImage:     image,
		EnclaveSigner:    signer,
		Scheme:           s.scheme,
		EPCBytes:         s.epcBytes,
		PadRecordTo:      s.padRecordTo,
		Partitions:       s.partitions,
		PlacementShards:  s.placementShards,
		PlacementSeed:    s.placementSeed,
		Switchless:       s.switchless,
		DeliveryQueueLen: s.deliveryQueueLen,
		OverflowPolicy:   s.overflowPolicy,
		ReplayRingLen:    s.replayRingLen,
		ResumeWindow:     s.resumeWindow,
		DrainTimeout:     s.drainTimeout,
		RouterID:         s.routerID,
		Peers:            s.peers,
		PeerVerifier:     s.peerVerifier,
		PeerIdentities:   s.peerIdentities,
		FederationTTL:    s.federationTTL,
	}
}

// enclaveConfig lowers the resolved options onto an enclave launch.
func (s settings) enclaveConfig() sgx.EnclaveConfig {
	return sgx.EnclaveConfig{
		EPCBytes:  s.epcBytes,
		ISVProdID: s.isvProdID,
		ISVSVN:    s.isvSVN,
		Debug:     s.debug,
	}
}

// engineOptions lowers the resolved options onto the matching engine.
func (s settings) engineOptions() core.Options {
	return core.Options{PadRecordTo: s.padRecordTo}
}

// WithEPC bounds the enclave page cache to n bytes (default: the
// paper's ~93 MB usable EPC, DefaultEPCBytes). Experiments shrink it
// to provoke the Figure 8 paging cliff in seconds.
func WithEPC(n uint64) Option { return func(s *settings) { s.epcBytes = n } }

// WithPadding pads every engine record to at least n bytes, matching
// the paper's ≈437 B/subscription footprint.
func WithPadding(n int) Option { return func(s *settings) { s.padRecordTo = n } }

// WithPartitions shards the router's subscription database across k
// enclave matcher slices — the paper's §3.4 StreamHub-style
// partitioning. Registrations hash to a slice; every publication is
// matched by all slices in parallel and the results merged, so
// matching parallelises and each enclave holds 1/k of the database
// (the Fig. 8 paging-cliff remedy). The configured EPC budget is
// divided across the slices. Default 1, max 256.
func WithPartitions(k int) Option { return func(s *settings) { s.partitions = k } }

// WithPlacementShards sets the number of fixed virtual shards
// registration keys hash onto (default 64, max 256; raised to the
// partition count when smaller). Shards are the unit of migration for
// Router.Repartition: more shards move in finer grains at the cost of
// a wider placement table. The shard count is immutable for a router's
// lifetime — sealed state only restores under the same count.
func WithPlacementShards(n int) Option { return func(s *settings) { s.placementShards = n } }

// WithPlacementSeed seeds the rendezvous hash assigning shards to
// slices (0, the default, selects a fixed built-in seed). Routers that
// must agree on placement byte-for-byte — e.g. when replaying one
// sealed state into a rebuilt fleet — share a seed.
func WithPlacementSeed(seed int64) Option { return func(s *settings) { s.placementSeed = seed } }

// WithSwitchless makes each slice's resident matcher pay for
// publications the way the paper's §6 "message exchanges at the
// enclave border" does — one enclave entry for the worker's lifetime
// and a poll of the untrusted queue per message — instead of one ecall
// per message per slice. It changes what the simulated meter is
// charged, not the path a publication takes.
func WithSwitchless() Option { return func(s *settings) { s.switchless = true } }

// WithDeliveryQueue bounds each listening client's outbound delivery
// queue to n messages (default 256). A client that stops draining its
// connection overflows its queue and is handled by the router's
// overflow policy (WithOverflowPolicy) instead of stalling matching
// or other clients.
func WithDeliveryQueue(n int) Option { return func(s *settings) { s.deliveryQueueLen = n } }

// WithOverflowPolicy selects the router's slow-consumer policy: what
// happens when a client's bounded delivery queue is full. The default
// is OverflowDropOldest (evict the oldest queued frame; the client can
// recover it by resuming with its cursor). OverflowDisconnect restores
// the pre-cursor behaviour of severing the connection; OverflowPause
// blocks the delivery stage instead — lossless, but a stalled client
// throttles the publication stream feeding it. Matching itself never
// blocks under any policy.
func WithOverflowPolicy(p OverflowPolicy) Option {
	return func(s *settings) { s.overflowPolicy = p }
}

// WithReplayRing bounds each client's delivery replay ring to n
// messages (default 512) — the window a reconnecting listener can
// recover by presenting its last-seen cursor to Client.Resume. Losses
// beyond the ring are reported as the resume gap. A negative n
// disables the ring: cursors still stamp and gaps stay observable,
// but no payloads are retained per client — for deployments that
// never resume and want the memory back.
func WithReplayRing(n int) Option { return func(s *settings) { s.replayRingLen = n } }

// WithResumeWindow bounds how long the router retains a detached
// client's delivery state (cursor + replay ring) for resumption
// (default 5m). Past the window the state — and the payload memory
// its ring pins — is released, so client churn cannot grow the
// router without bound; a client returning later starts fresh.
func WithResumeWindow(d time.Duration) Option {
	return func(s *settings) { s.resumeWindow = d }
}

// WithDrainTimeout bounds the graceful half of Router.Close: the
// per-client delivery writers get up to d to flush already-matched
// deliveries before their connections are severed (default 2s).
func WithDrainTimeout(d time.Duration) Option {
	return func(s *settings) { s.drainTimeout = d }
}

// WithRouterID names the router in a federation overlay and enables
// federation: the router accepts mutually attested peer links,
// exchanges subscription digests with its peers, and forwards
// publications hop by hop toward matching downstream subscribers.
// Combine with WithPeers and WithPeerVerifier.
func WithRouterID(id string) Option { return func(s *settings) { s.routerID = id } }

// WithPeers lists peer router addresses this router dials (with
// retry) to form attested overlay links. Links are bidirectional —
// only one side of each pair needs the other in its peer list.
func WithPeers(addrs ...string) Option {
	return func(s *settings) { s.peers = append(s.peers, addrs...) }
}

// WithPeerVerifier supplies the attestation service that vouches for
// peer platforms and, optionally, the enclave identities accepted
// from peers (defaulting to the router's own identity — a fleet
// launched from one measured image). Required for federation.
func WithPeerVerifier(svc *AttestationService, ids ...Identity) Option {
	return func(s *settings) {
		s.peerVerifier = svc
		s.peerIdentities = append(s.peerIdentities, ids...)
	}
}

// WithFederationTTL sets the hop budget forwarded publications start
// with (default 8). Digest-driven forwarding already prevents loops on
// converged state; the TTL bounds the blast radius while digests are
// propagating.
func WithFederationTTL(n int) Option { return func(s *settings) { s.federationTTL = n } }

// WithScheme selects the matching scheme a Router stores and matches
// under, or a Publisher encodes under (default SchemePlain, the
// paper's plaintext-in-enclave path). The scheme ID travels in the
// wire handshake: provisioning, registration, and publication frames
// are tagged with it, and a router rejects frames from a
// different-scheme peer with ErrSchemeMismatch.
//
// Scheme options parameterise the publisher-side codec; routers ignore
// them (their stores are configured from the public parameters the
// publisher announces during attested provisioning):
//
//	pub, err := scbr.NewPublisher(svc, id,
//	    scbr.WithScheme(scbr.SchemeASPE,
//	        scbr.WithSchemeAttrs("symbol", "price"),
//	        scbr.WithSchemeSeed(7)))
func WithScheme(name string, opts ...SchemeOption) Option {
	return func(s *settings) {
		s.scheme = name
		s.schemeOpts = append(s.schemeOpts, opts...)
	}
}

// SchemeOption parameterises a matching scheme's publisher-side codec
// (see WithScheme).
type SchemeOption = scheme.Option

// WithSchemeAttrs fixes the scheme's attribute universe. Required by
// SchemeASPE: its vector space has one dimension pair per attribute,
// and subscriptions/publications may only reference these attributes.
func WithSchemeAttrs(names ...string) SchemeOption { return scheme.WithAttrs(names...) }

// WithSchemeSeed seeds the scheme's secret material (ASPE: the
// invertible matrices) deterministically; 0 (the default) draws fresh
// randomness.
func WithSchemeSeed(seed int64) SchemeOption { return scheme.WithSeed(seed) }

// WithSchemeScale fixes one attribute's public normalisation divisor
// (ASPE: balances the sign-test tolerance across attribute
// magnitudes).
func WithSchemeScale(name string, scale float64) SchemeOption {
	return scheme.WithScale(name, scale)
}

// WithISV sets the enclave's product ID and security version, both
// part of the measured identity checked at provisioning.
func WithISV(prodID, svn uint16) Option {
	return func(s *settings) {
		s.isvProdID = prodID
		s.isvSVN = svn
	}
}

// WithDebugEnclave launches the enclave in debug mode. Attestation
// verifiers reject debug enclaves unless explicitly allowed; never
// combine with production secrets.
func WithDebugEnclave() Option { return func(s *settings) { s.debug = true } }
