package broker

import (
	"context"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scbr/internal/attest"
	"scbr/internal/core"
	"scbr/internal/federation"
	"scbr/internal/placement"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
	"scbr/internal/streamhub"
)

// provisionPayload is the secret bundle the publisher provisions into
// the enclave after attestation: the symmetric key SK — which also keys
// the registration tags (registrationTag) — and the matching scheme the
// publisher encodes under: its ID plus whatever public parameters the
// router's slices need. Carrying the scheme inside the attested bundle
// makes the negotiation tamper-evident: the untrusted infrastructure
// cannot downgrade a deployment to a different scheme without failing
// the provisioning MAC.
type provisionPayload struct {
	SK     []byte `json:"sk"`
	Scheme string `json:"scheme,omitempty"`
	Params []byte `json:"scheme_params,omitempty"`
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// EnclaveImage is the measured code image; the publisher pins its
	// measurement during attestation.
	EnclaveImage []byte
	// EnclaveSigner signs the image (MRSIGNER).
	EnclaveSigner *ecdh.PublicKey
	// Scheme names the matching scheme this router's slices store and
	// match under (internal/scheme; empty = the default "sgx-plain").
	// Provisioning, registration, publication, and scheme-aware listen
	// frames announcing a different scheme are rejected with
	// ErrSchemeMismatch.
	Scheme string
	// EPCBytes bounds the total enclave page cache across all matcher
	// slices (default: the paper's ~93 MB usable EPC). With k
	// partitions each slice's enclave gets an identical page-aligned
	// ceil(1/k) share (SliceEPCShare) — identical because EPCBytes is
	// part of the measured enclave identity migration seals state to —
	// so a database that would page on one enclave fits k enclaves'
	// EPCs: the §3.4 StreamHub answer to the Fig. 8 paging cliff.
	// deploy.Plan sizes k from the scheme's footprint model so each
	// slice's working set stays under its share.
	EPCBytes uint64
	// PadRecordTo is forwarded to the engines (see core.Options).
	PadRecordTo int
	// Partitions splits the subscription database across this many
	// enclave matcher slices (default 1, max 256). Registrations hash
	// to a virtual shard whose slice the placement map names;
	// publications are matched by every slice in parallel and the
	// result sets merged. Repartition resizes the slice count online.
	Partitions int
	// PlacementShards fixes the virtual shard count of the movable
	// placement map — the granularity of online migration (default
	// placement.DefaultShards, max placement.MaxShards). Raised to
	// Partitions when smaller, since every slice must own at least one
	// shard. The shard count cannot change after construction: it is
	// packed into every issued subscription ID.
	PlacementShards int
	// PlacementSeed seeds the rendezvous election assigning shards to
	// slices (0 = a fixed default). Deployments only need to vary it to
	// de-correlate placement across routers.
	PlacementSeed int64
	// Switchless selects the enclave transition a slice's resident
	// worker charges its meter for publications. Off, every wire
	// message costs each slice one call-gate round trip (Ecall); on, a
	// worker enters its enclave once and then pays only a poll of the
	// untrusted queue per message — the paper's §6 "message exchanges
	// at the enclave border". The pipeline publications travel through
	// is the same either way; registrations and removals always take
	// an ecall (they must be acknowledged).
	Switchless bool
	// DeliveryQueueLen bounds each listening client's outbound
	// delivery queue (default 256 messages). OverflowPolicy decides
	// what happens to a client whose queue fills.
	DeliveryQueueLen int
	// OverflowPolicy is the slow-consumer policy applied when a
	// client's delivery queue overflows (default OverflowDropOldest:
	// evict the oldest queued frame, recoverable from the replay ring
	// on resume; the pre-cursor behaviour is OverflowDisconnect).
	OverflowPolicy OverflowPolicy
	// ReplayRingLen bounds each client's delivery replay ring (default
	// 512 messages) — the window a reconnecting listener can recover
	// by presenting its last-seen cursor. Negative disables the ring
	// entirely: cursors still stamp (loss stays observable as gaps),
	// but nothing is retained for replay and no payload memory is
	// pinned per client.
	ReplayRingLen int
	// ResumeWindow bounds how long a detached client's delivery state
	// (cursor + replay ring, and the payloads it pins) is retained for
	// resumption (default 5m). A client returning later is a fresh
	// listener. Negative disables eviction — unbounded growth under
	// client churn; use only in tests.
	ResumeWindow time.Duration
	// DrainTimeout bounds how long Close waits for the per-client
	// delivery writers to flush already-matched deliveries before
	// severing the connections (default 2s).
	DrainTimeout time.Duration

	// RouterID names this router in a federation overlay. Setting it
	// (or Peers) enables federation: the router accepts attested peer
	// links, exchanges subscription digests, and forwards publications
	// toward matching downstreams.
	RouterID string
	// Peers lists the addresses of peer routers this router dials
	// (with retry) to establish attested links. The reverse direction
	// of each link needs no entry — links are bidirectional.
	Peers []string
	// PeerVerifier vouches for peer platforms (their quoting keys), as
	// the attestation service does for publishers. Required when
	// federation is enabled.
	PeerVerifier *attest.Service
	// PeerIdentities pins the enclave identities accepted from peers.
	// Empty means "my own identity" — the common fleet launched from
	// one measured image.
	PeerIdentities []attest.Identity
	// FederationTTL is the hop budget forwarded publications start
	// with (default federation.DefaultTTL).
	FederationTTL int
}

// Router hosts the SCBR filtering engine inside enclaves on the
// untrusted infrastructure. One router serves one service provider —
// the paper's deployment; run several routers for multi-tenancy. The
// subscription database is partitioned across cfg.Partitions enclave
// matcher slices (streamhub.Hub), and the router's state is split by
// concern so registrations, matching, and delivery never serialise on
// one lock:
//
//   - keyMu (read-mostly): the provisioned SK and scheme parameters,
//   - ctlMu: the control plane — client refs and the registration log
//     (which names each subscription's owner),
//   - connMu: the accept loop's connection set,
//   - one lock per partition: that slice's enclave entries and meter,
//   - the delivery table's own lock: per-client outbound queues.
type Router struct {
	dev     *sgx.Device
	quoter  *attest.Quoter
	cfg     RouterConfig
	backend *scheme.Backend // the resolved matching scheme

	hub    *streamhub.Hub
	schema *pubsub.Schema
	pm     *placement.Map
	parts  []*partition
	// p0 is partition 0 — the attestation slice. It is never migrated
	// away or removed by a resize (shrink drops the highest indices,
	// and the minimum slice count is 1), so federation, provisioning,
	// and sealing reference it through this stable field instead of
	// reading r.parts under the data-plane lock.
	p0 *partition
	// epcPer is the per-slice EPC share computed at construction;
	// slices added by Repartition launch with the same share.
	epcPer uint64

	keyMu        sync.RWMutex
	sk           *scrypto.SymmetricKey
	schemeParams []byte // provisioned public scheme parameters

	ctlMu     sync.RWMutex
	clientRef map[string]uint32
	refName   []string
	regLog    []logEntry
	regPos    map[uint64]int // SubID → regLog index (O(1) removal)

	// stateMu makes the register/remove two-step (engine mutation,
	// then log mutation) atomic with respect to SealState: mutators
	// hold it shared for the span of both steps, the sealer exclusively
	// while snapshotting, so a sealed blob never captures an engine/log
	// divergence a client was already acknowledged across. The
	// migration engine reuses the same fence: placement diverts flip
	// and shard snapshots are taken under the exclusive lock, so a
	// registration resolves its shard's slice and lands there under one
	// shared hold — it either precedes the divert (and is in the
	// migrated snapshot) or follows it (and registers on the
	// destination directly).
	stateMu sync.RWMutex

	// planeMu fences the data plane for slice-set changes: a
	// publication's dispatch holds it shared from slot sizing until the
	// job is queued on every worker and the merger, and Repartition
	// holds it exclusively while appending or removing slices, so
	// r.parts and the per-job slot layout are stable within any single
	// dispatch.
	planeMu sync.RWMutex

	// Migration engine state (migrate.go): migMu admits one Repartition
	// at a time; migShards (guarded by stateMu) names the shards of the
	// in-flight move group; migEntryMu serialises per-entry imports
	// against removals on moving shards; migRemoved (guarded by
	// migEntryMu) records removals that must not be resurrected by a
	// later import; dedupActive arms per-item delivery dedup during the
	// two-copy migration window.
	migMu       sync.Mutex
	migShards   map[int]bool
	migEntryMu  sync.Mutex
	migRemoved  map[uint64]bool
	dedupActive atomic.Bool

	connMu   sync.Mutex
	conns    map[net.Conn]bool
	listener net.Listener

	delivery *deliveryTable

	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once

	// The publication pipeline's spine (datapath.go): pushMu puts each
	// job on every worker's queue and on the merge queue in one order.
	pushMu     sync.Mutex
	merge      chan *matchJob
	mergerDone chan struct{}
	jobs       jobList

	// Federation overlay (nil when disabled): digest state plus the
	// live attested peer links.
	fed      *federation.Overlay
	fedMu    sync.Mutex
	fedLinks map[*peerLink]bool
}

// NewRouter launches the router's enclave slices on the given device
// and builds one scheme store per slice over enclave memory (the
// containment engine for sgx-plain, the ciphertext-vector store for
// aspe). On any failure after launch every launched enclave is
// terminated before the error returns, so a failed construction never
// leaks EPC pages. A constructed router is running its publication
// pipeline (one worker per slice and the merger); Close stops it.
func NewRouter(dev *sgx.Device, quoter *attest.Quoter, cfg RouterConfig) (*Router, error) {
	if len(cfg.EnclaveImage) == 0 {
		return nil, errors.New("broker: router needs an enclave image")
	}
	backend, err := scheme.Lookup(cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	federated := cfg.RouterID != "" || len(cfg.Peers) > 0
	if federated && !backend.Caps.FederationDigests {
		// The explicit capability gate: federation needs §3.2 containment
		// digests over subscription plaintext, which this scheme never
		// reveals to the router.
		return nil, fmt.Errorf("broker: scheme %q cannot join a federation overlay (no federation-digest support)", backend.Name)
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
	}
	if cfg.Partitions < 0 || cfg.Partitions > streamhub.MaxPartitions {
		return nil, fmt.Errorf("broker: partition count %d out of range [1,%d]", cfg.Partitions, streamhub.MaxPartitions)
	}
	if cfg.PlacementShards == 0 {
		cfg.PlacementShards = placement.DefaultShards
	}
	if cfg.PlacementShards < 0 || cfg.PlacementShards > placement.MaxShards {
		return nil, fmt.Errorf("broker: placement shard count %d out of range [1,%d]", cfg.PlacementShards, placement.MaxShards)
	}
	if cfg.PlacementShards < cfg.Partitions {
		cfg.PlacementShards = cfg.Partitions
	}
	pm, err := placement.New(cfg.PlacementShards, cfg.Partitions, cfg.PlacementSeed)
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	epcPer := SliceEPCShare(cfg.EPCBytes, cfg.Partitions)

	r := &Router{
		dev:        dev,
		quoter:     quoter,
		cfg:        cfg,
		backend:    backend,
		pm:         pm,
		epcPer:     epcPer,
		clientRef:  make(map[string]uint32),
		regPos:     make(map[uint64]int),
		migShards:  make(map[int]bool),
		migRemoved: make(map[uint64]bool),
		conns:      make(map[net.Conn]bool),
		delivery:   newDeliveryTable(cfg.DeliveryQueueLen, cfg.ReplayRingLen, cfg.OverflowPolicy, cfg.ResumeWindow),
		closing:    make(chan struct{}),
	}
	ok := false
	defer func() {
		if !ok {
			for _, p := range r.parts {
				p.enclave.Terminate()
			}
		}
	}()
	r.schema = pubsub.NewSchema()
	slices := make([]scheme.Slice, 0, cfg.Partitions)
	for i := 0; i < cfg.Partitions; i++ {
		p, err := r.launchSlice(i)
		if err != nil {
			return nil, err
		}
		r.parts = append(r.parts, p)
		slices = append(slices, p.slice)
	}
	r.p0 = r.parts[0]
	hub, err := streamhub.NewFromSlicesPlaced(r.schema, slices, pm)
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	r.hub = hub
	r.startPipeline()
	if federated {
		if err := r.startFederation(); err != nil {
			r.stopPipeline()
			return nil, err
		}
	}
	ok = true
	return r, nil
}

// launchSlice launches slice idx's enclave — the router's image, the
// per-slice EPC share — and builds the scheme store and the job queue
// of its partition. Construction and Repartition's growth both come
// through here, which is what keeps every slice of a fleet at one
// measured identity. The caller adds the partition to r.parts and
// starts its worker.
func (r *Router) launchSlice(idx int) (*partition, error) {
	enclave, err := r.dev.Launch(r.cfg.EnclaveImage, r.cfg.EnclaveSigner,
		sgx.EnclaveConfig{EPCBytes: r.epcPer})
	if err != nil {
		return nil, fmt.Errorf("broker: launching slice enclave: %w", err)
	}
	slice, err := r.backend.NewSlice(enclave.Memory(), r.schema, core.Options{PadRecordTo: r.cfg.PadRecordTo})
	if err != nil {
		enclave.Terminate()
		return nil, fmt.Errorf("broker: building slice store: %w", err)
	}
	p := &partition{
		idx: idx, enclave: enclave, slice: slice,
		jobs:       make(chan *matchJob, pipelineDepth),
		workerDone: make(chan struct{}),
	}
	return p, nil
}

// Enclave exposes the router's attestation enclave — partition 0, the
// slice whose quote publishers verify. All slices launch from the same
// image with the same per-slice EPC share, so they carry the same
// measured identity.
func (r *Router) Enclave() *sgx.Enclave { return r.p0.enclave }

// Scheme returns the canonical ID of the router's matching scheme.
func (r *Router) Scheme() string { return r.backend.Name }

// SchemeCapabilities returns the matching scheme's capability flags.
func (r *Router) SchemeCapabilities() scheme.Capabilities { return r.backend.Caps }

// checkScheme validates a frame's scheme tag against the router's
// scheme (the empty tag means the default scheme, so pre-scheme peers
// keep working against default routers).
func (r *Router) checkScheme(tag string) error {
	if got := scheme.Canonical(tag); got != r.backend.Name {
		return fmt.Errorf("%w: frame encoded under %q, router runs %q", ErrSchemeMismatch, got, r.backend.Name)
	}
	return nil
}

// Partitions returns the number of enclave matcher slices.
func (r *Router) Partitions() int {
	r.planeMu.RLock()
	defer r.planeMu.RUnlock()
	return len(r.parts)
}

// DataPlaneStats summarises the partitioned index.
type DataPlaneStats struct {
	// Partitions is the number of enclave matcher slices.
	Partitions int
	// Subscriptions is the live count across all slices.
	Subscriptions int
	// PerPartition lists each slice's live subscription count.
	PerPartition []int
	// Bytes sums the slices' enclave arena footprints.
	Bytes uint64
}

// DataPlaneStats aggregates the slices' stores from SliceFootprints:
// each slice is read under its partition lock, one slice at a time.
func (r *Router) DataPlaneStats() DataPlaneStats {
	var st DataPlaneStats
	for _, fp := range r.SliceFootprints() {
		st.Partitions++
		st.Subscriptions += fp.Subscriptions
		st.PerPartition = append(st.PerPartition, fp.Subscriptions)
		st.Bytes += fp.StoreBytes
	}
	return st
}

// MeterSnapshot aggregates the slices' enclave meters into one view.
// Each slice's counters are read under its partition lock, so every
// per-slice contribution is coherent; slices are read one at a time,
// so concurrent traffic may land between reads, as with any fleet-wide
// aggregate.
func (r *Router) MeterSnapshot() simmem.Counters {
	var total simmem.Counters
	for _, c := range r.SliceMeterSnapshots() {
		total = total.Add(c)
	}
	return total
}

// SliceMeterSnapshots returns each partition meter's counters, indexed
// by slice. Experiments compare the slowest slice against the sum to
// quantify the partition speed-up (slices run in parallel, so the
// makespan is the max, not the total).
func (r *Router) SliceMeterSnapshots() []simmem.Counters {
	r.planeMu.RLock()
	defer r.planeMu.RUnlock()
	out := make([]simmem.Counters, len(r.parts))
	for i, p := range r.parts {
		p.mu.Lock()
		out[i] = p.slice.Accessor().Meter().C
		p.mu.Unlock()
	}
	return out
}

// DeliveryQueueDepths reports each listening client's buffered
// delivery count — the backlog the per-client writers have yet to put
// on the wire.
func (r *Router) DeliveryQueueDepths() map[string]int {
	return r.delivery.depths()
}

// DeliverySnapshot reports the delivery layer's loss and recovery
// counters: enqueues, overflow drops, slow-consumer disconnects,
// cursor replays, pause stalls, and unrecoverable replay gaps. Zero
// loss counters with a non-zero Enqueued means every matched delivery
// made it onto a queue.
func (r *Router) DeliverySnapshot() DeliveryCounters {
	return r.delivery.snapshot()
}

// DeliveryLatencySnapshot reports the enqueue→write latency of
// delivered frames — p50/p95/p99 per client and in aggregate — the
// router-side half of the latency the load harness measures end to
// end. Recording is per delivered frame on the live path; replayed
// frames are excluded (their stamps describe a previous connection).
func (r *Router) DeliveryLatencySnapshot() DeliveryLatency {
	return r.delivery.latencySnapshot()
}

// keys returns the provisioned SK (nil before provisioning).
func (r *Router) keys() *scrypto.SymmetricKey {
	r.keyMu.RLock()
	defer r.keyMu.RUnlock()
	return r.sk
}

// Identity returns the enclave identity a publisher should pin.
func (r *Router) Identity() attest.Identity {
	return attest.Identity{
		MRENCLAVE: r.Enclave().MRENCLAVE(),
		MRSIGNER:  r.Enclave().MRSIGNER(),
	}
}

// Serve accepts connections until ctx is cancelled or Close is
// called. Each connection is handled on its own goroutine; ctx
// cancellation severs the listener and every active connection, so
// handler loops blocked in Recv unwind promptly. Serve returns nil
// after Close and ctx.Err() after cancellation.
func (r *Router) Serve(ctx context.Context, l net.Listener) error {
	select {
	case <-r.closing:
		return ErrClosed
	default:
	}
	r.connMu.Lock()
	r.listener = l
	r.connMu.Unlock()
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				_ = l.Close()
				r.connMu.Lock()
				for c := range r.conns {
					_ = c.Close()
				}
				r.connMu.Unlock()
			case <-r.closing:
			case <-stop:
			}
		}()
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-r.closing:
				return nil
			default:
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			return fmt.Errorf("broker: accept: %w", err)
		}
		r.connMu.Lock()
		select {
		case <-r.closing:
			// Accepted concurrently with Close: its sweep ran before
			// this conn was registered, so reject it here — a handler
			// started now would outlive Close's wg.Wait and publish
			// into the torn-down pipeline.
			r.connMu.Unlock()
			_ = conn.Close()
			return nil
		default:
		}
		r.conns[conn] = true
		r.wg.Add(1)
		r.connMu.Unlock()
		if ctx.Err() != nil {
			// Accepted concurrently with cancellation: the watcher's
			// sweep may have run before this conn was registered, so
			// sever it here — either the sweep saw it or this does.
			_ = conn.Close()
		}
		go func() {
			defer r.wg.Done()
			defer func() {
				r.connMu.Lock()
				delete(r.conns, conn)
				r.connMu.Unlock()
				_ = conn.Close()
			}()
			r.handleConn(conn)
		}()
	}
}

// Close stops the router: the accept loop, every client connection,
// and every peer link are severed, the publication pipeline is
// drained, and the per-client delivery writers flush already-matched
// deliveries (bounded by DrainTimeout) before their connections
// close. Safe to call more than once; concurrent callers block until
// the first teardown completes.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		close(r.closing)
		r.connMu.Lock()
		if r.listener != nil {
			_ = r.listener.Close()
		}
		for c := range r.conns {
			_ = c.Close()
		}
		r.connMu.Unlock()
		r.fedMu.Lock()
		for link := range r.fedLinks {
			link.stop()
		}
		r.fedMu.Unlock()
		r.wg.Wait() // no producers remain past this point
		if r.fed != nil {
			r.fed.Close()
		}
		r.stopPipeline()
		r.delivery.close(r.cfg.DrainTimeout)
	})
}

// handleConn dispatches messages from one peer connection. The
// connection is read through one buffered reader from here on — this
// loop, every handler it calls (provisioning's second round trip, the
// listen drain, a peer link's read side) and nothing else — so a burst
// of frames is one read and no handler strands buffered bytes.
//
// Ownership: every frame is read into an allocation of its own, and a
// data message's Blob, Payload and Items are views of it, not copies
// — one allocation per frame instead of one per field. They may
// therefore outlive the handler: header blobs ride the match jobs
// past this loop and payloads live on in the
// per-client replay rings, each pinning the frame it arrived in until
// the ring lets go. A register-batch frame's item blobs are views too;
// the registration log keeps a copy of each, so the frame is garbage
// once acknowledged. Nothing is reused across frames, so nothing here
// needs copying before the next read. Control messages are decoded by
// encoding/json into fresh fields and their frames are garbage once
// decoded.
func (r *Router) handleConn(raw net.Conn) {
	conn := newBufferedConn(raw)
	for {
		m, err := Recv(conn)
		if err != nil {
			return // connection closed or corrupt framing
		}
		switch m.Type {
		case TypeProvision:
			err = r.handleProvision(conn, m)
		case TypeRegisterBatch:
			err = r.handleRegisterBatch(conn, m)
		case TypeRemove:
			err = r.handleRemove(conn, m)
		case TypePublish, TypePublishBatch:
			// Publications are fire-and-forget on the wire; a publish
			// that fails authentication is dropped, not answered, so
			// the reply stream stays aligned with request/response
			// messages on the same connection.
			_ = r.handlePublish(m)
			continue
		case TypePeerHello:
			// The connection becomes an attested peer link; it never
			// returns to this loop (runPeer serves it until it drops).
			if err := r.handlePeerHello(conn, m); err != nil {
				sendErr(conn, fmt.Errorf("peer hello: %w", err))
			}
			return
		case TypeListen:
			if err := r.handleListen(conn, m); err != nil {
				sendErr(conn, fmt.Errorf("listen: %w", err))
				return
			}
			// The connection's write side now belongs exclusively to
			// the delivery writer — replying to anything further here
			// would interleave frames with in-flight deliveries. Drain
			// and discard the read side so the close is still observed.
			conn.discard()
			return
		default:
			sendErrf(conn, "unexpected message %q", m.Type)
			return
		}
		if err != nil {
			sendErr(conn, err)
		}
	}
}

// handleProvision runs the router side of remote attestation against
// the attestation slice (partition 0): emit a quote-bound provisioning
// request, then install the secrets the publisher returns. The paper's
// §3.4 partitioning note applies to the keys — "the key management
// [...] could be simply replicated" — so one provisioning run arms
// every slice. The publisher's matching scheme is checked twice: the
// plaintext tag on the provision frame rejects mismatched publishers
// before the attestation round trips, and the scheme ID inside the
// attested bundle is the authoritative, tamper-evident check.
func (r *Router) handleProvision(conn net.Conn, m *Message) error {
	if err := r.checkScheme(m.Scheme); err != nil {
		return err
	}
	p0 := r.p0
	p0.mu.Lock()
	req, ephemeral, err := attest.NewProvisioningRequest(p0.enclave, r.quoter)
	p0.mu.Unlock()
	if err != nil {
		return fmt.Errorf("building provisioning request: %w", err)
	}
	if err := Send(conn, &Message{Type: TypeProvisionReq, Quote: req.Quote, PubKey: req.PubKey}); err != nil {
		return err
	}
	reply, err := Recv(conn)
	if err != nil {
		return err
	}
	if err := expect(reply, TypeProvisionKey); err != nil {
		return err
	}
	p0.mu.Lock()
	secret, err := attest.ReceiveSecret(p0.enclave, ephemeral, reply.Blob)
	p0.mu.Unlock()
	if err != nil {
		return fmt.Errorf("receiving secret: %w", err)
	}
	var payload provisionPayload
	if err := json.Unmarshal(secret, &payload); err != nil {
		return fmt.Errorf("decoding provisioned bundle: %w", err)
	}
	sk, err := scrypto.SymmetricKeyFromBytes(payload.SK)
	if err != nil {
		return fmt.Errorf("decoding SK: %w", err)
	}
	if err := r.checkScheme(payload.Scheme); err != nil {
		return err
	}
	if err := r.configureSlices(payload.Params); err != nil {
		return err
	}
	r.keyMu.Lock()
	r.sk = sk
	r.schemeParams = append([]byte(nil), payload.Params...)
	r.keyMu.Unlock()
	return Send(conn, &Message{Type: TypeProvisionOK, Scheme: r.backend.Name})
}

// configureSlices applies the scheme's wire-negotiated public
// parameters to every slice store, inside each slice's enclave.
func (r *Router) configureSlices(params []byte) error {
	r.planeMu.RLock()
	defer r.planeMu.RUnlock()
	for _, p := range r.parts {
		p.mu.Lock()
		err := p.enclave.Ecall(func() error { return p.slice.Configure(params) })
		p.mu.Unlock()
		if err != nil {
			return fmt.Errorf("configuring scheme parameters on slice %d: %w", p.idx, err)
		}
	}
	return nil
}

// handleRegisterBatch is step ③, the one way a subscription enters the
// router: a frame of n ≥ 1 registrations for one client under one
// registration tag — binding every blob to the client identity — which
// is recomputed and compared inside the attestation slice's enclave.
// Each item is then hashed to a virtual shard and resolved to the
// shard's slice through the placement map, and every slice the frame
// touches ingests its items in one enclave entry, beside the others
// (ingest). Only the touched partitions serialise — registrations on
// other slices, and all matching not on these slices, proceed
// concurrently. Resolution happens under the shared state lock, so an
// item either precedes a migration divert (and is captured in the
// migrated snapshot) or follows it (and lands on the destination slice
// directly). A frame is all or nothing: a bad item unregisters every
// item ingested beside it, still under the state lock, so nothing is
// ever matched, sealed or migrated that the registration log does not
// name. The items are checked and opened under one key, the one read
// here.
func (r *Router) handleRegisterBatch(conn net.Conn, m *Message) error {
	if m.ClientID == "" {
		return errors.New("batch registration without client identity")
	}
	if err := r.checkScheme(m.Scheme); err != nil {
		return err
	}
	if len(m.Items) == 0 {
		return Send(conn, &Message{Type: TypeRegisterBatchOK})
	}
	sk := r.keys()
	if sk == nil {
		return ErrNotProvisioned
	}
	p0 := r.p0
	p0.mu.Lock()
	err := p0.enclave.Ecall(func() error {
		if !hmac.Equal(registrationTag(sk, m.ClientID, m.Items), m.Tag) {
			return fmt.Errorf("batch registration tag invalid: %w", scrypto.ErrAuthentication)
		}
		return nil
	})
	p0.mu.Unlock()
	if err != nil {
		return err
	}
	items := make([]regItem, len(m.Items))
	r.stateMu.RLock()
	for i, it := range m.Items {
		items[i] = regItem{
			logEntry: logEntry{ClientID: m.ClientID, Blob: it.Blob},
			shard:    r.hub.ShardForKey([]byte(m.ClientID), it.Blob),
		}
	}
	if failed, err := r.ingest(sk, items); err != nil {
		r.stateMu.RUnlock()
		return fmt.Errorf("batch item %d: %w", failed, err)
	}
	subIDs := make([]uint64, len(items))
	ents := make([]logEntry, len(items))
	r.ctlMu.Lock()
	for i, it := range items {
		// The item's blob is a view of the frame; the log keeps a copy.
		ents[i] = logEntry{SubID: it.SubID, ClientID: m.ClientID, Blob: append([]byte(nil), it.Blob...)}
		subIDs[i] = it.SubID
		r.logRegistration(ents[i])
	}
	r.ctlMu.Unlock()
	r.stateMu.RUnlock()
	r.fedAddLocal(ents)
	return Send(conn, &Message{Type: TypeRegisterBatchOK, SubIDs: subIDs})
}

// logRegistration appends one ingested registration to the log that
// SealState captures, migration snapshots and removal consults for the
// owner. Callers hold ctlMu.
func (r *Router) logRegistration(ent logEntry) {
	r.regPos[ent.SubID] = len(r.regLog)
	r.regLog = append(r.regLog, ent)
}

// regItem is one registration on its way into a slice store: the log
// entry it becomes — SubID 0 until the live path's ingest issues one,
// the logged ID on restore and migration — and its shard, by which
// ingest picks its slice.
type regItem struct {
	logEntry
	shard int
}

// ingest enters items into their slices' stores: the items the
// placement map sends to one slice go in, in item order, in one enclave
// entry on it (ingestGroup), every blob opened under sk. A frame that
// touches one slice ingests on the calling goroutine; with more, the
// caller takes the first slice and each other slice's group runs beside
// it on a goroutine of its own. A shard has one slice, so every shard's
// items are issued their IDs in item order either way: the IDs one-item
// frames would have been issued. It is all or nothing: if any group
// fails, every item any group ingested is unregistered again before the
// error returns with the index of the lowest failed item. Callers keep
// placement stable across the call (stateMu, or a router not yet
// serving).
func (r *Router) ingest(sk *scrypto.SymmetricKey, items []regItem) (int, error) {
	groups := make([][]int, len(r.parts))
	for i := range items {
		s := r.hub.SliceForShard(items[i].shard)
		if groups[s] == nil {
			groups[s] = make([]int, 0, len(items))
		}
		groups[s] = append(groups[s], i)
	}
	done := make([]int, len(groups))
	errs := make([]error, len(groups))
	run := func(s int) { done[s], errs[s] = r.ingestGroup(s, sk, items, groups[s]) }
	var wg sync.WaitGroup
	first := -1
	for s, idx := range groups {
		switch {
		case len(idx) == 0:
		case first < 0:
			first = s
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(s)
			}()
		}
	}
	if first >= 0 {
		run(first)
	}
	wg.Wait()
	failed, failErr := len(items), error(nil)
	for s, err := range errs {
		if err != nil && groups[s][done[s]] < failed {
			failed, failErr = groups[s][done[s]], err
		}
	}
	if failErr == nil {
		return 0, nil
	}
	for s, idx := range groups {
		for _, i := range idx[:done[s]] {
			// Issued a moment ago under the caller's placement fence:
			// nothing can have moved or removed it, so this finds it.
			_ = r.unregister(items[i].SubID)
		}
	}
	return failed, failErr
}

// ingestGroup is the one way registration blobs enter a slice store:
// items[i] for each i of idx, in that order, into partition target (the
// slice their shards resolve to), all inside one enclave entry. An SK
// envelope is opened under sk into the partition's scratch, which the
// store decodes into its arena; scheme ciphertext is stored as it is.
// An item with SubID 0 is issued a fresh shard-packed ID, which is
// written back to it; any other is stored under its ID (state restore,
// and the migration copy into a shard's new slice). Nothing decoded
// leaves the enclave (fedAddLocal feeds the digest on its own). Whoever
// calls has authenticated the blobs: the live path by the frame's
// registration tag, restore and migration by the enclave seal the
// logged entries travelled under. Callers hold stateMu (shared on the
// live path) or the migration's shard fence, which keeps the
// shard→slice resolution they did stable across the inserts. It
// returns how many items of idx it ingested; on an error, idx[done] is
// the item that failed.
func (r *Router) ingestGroup(target int, sk *scrypto.SymmetricKey, items []regItem, idx []int) (done int, err error) {
	if sk == nil {
		return 0, ErrNotProvisioned
	}
	p := r.parts[target]
	p.mu.Lock()
	err = p.enclave.Ecall(func() error {
		for _, i := range idx {
			it := &items[i]
			enc := it.Blob
			if r.backend.Caps.SealedExchange {
				plain, err := p.open(sk, it.Blob, p.plain[:0])
				if err != nil {
					return fmt.Errorf("decrypting subscription: %w", err)
				}
				p.plain, enc = plain, plain
			}
			// Intern the client identity only now that the blob opened:
			// rejected traffic must leave no state behind.
			ref := r.refFor(it.ClientID)
			var err error
			if it.SubID != 0 {
				err = r.hub.RegisterEncodedAssigned(target, enc, ref, it.SubID)
			} else {
				it.SubID, err = r.hub.RegisterEncodedAt(it.shard, target, enc, ref)
			}
			if err != nil {
				return err
			}
			done++
		}
		return nil
	})
	p.mu.Unlock()
	return done, err
}

// unregister drops a subscription from the slice that owns it, inside
// that slice's enclave. Callers hold stateMu.
func (r *Router) unregister(subID uint64) error {
	target, live := r.hub.OwnerSlice(subID)
	if !live {
		return fmt.Errorf("%w: %d", ErrUnknownSubscription, subID)
	}
	p := r.parts[target]
	p.mu.Lock()
	err := p.enclave.Ecall(func() error { return r.hub.UnregisterIn(subID) })
	p.mu.Unlock()
	return err
}

// handleRemove unregisters a subscription on the owner's behalf. The
// registration log names the owner and is indexed by SubID, so removal
// under churn is constant-time (the vacated slot is back-filled with the last entry;
// restore replays by assigned ID, so log order is immaterial). The
// slice holding the subscription comes from the hub's ownership index,
// not the ID — a migrated subscription keeps its ID but lives
// elsewhere. When the subscription's shard is mid-migration the
// removal serialises with the copy engine (migEntryMu) and records
// itself, so a later import cannot resurrect what a client removed.
func (r *Router) handleRemove(conn net.Conn, m *Message) error {
	r.ctlMu.RLock()
	pos, ok := r.regPos[m.SubID]
	owned := ok && r.regLog[pos].ClientID == m.ClientID
	r.ctlMu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSubscription, m.SubID)
	}
	if !owned {
		return fmt.Errorf("%w: subscription %d, client %s", ErrNotOwner, m.SubID, m.ClientID)
	}
	r.stateMu.RLock()
	moving := r.migShards[streamhub.ShardOf(m.SubID)]
	if moving {
		r.migEntryMu.Lock()
	}
	err := r.unregister(m.SubID)
	if moving {
		if err == nil {
			r.migRemoved[m.SubID] = true
		}
		r.migEntryMu.Unlock()
	}
	if err != nil {
		r.stateMu.RUnlock()
		return err
	}
	r.ctlMu.Lock()
	if pos, found := r.regPos[m.SubID]; found {
		last := len(r.regLog) - 1
		if pos != last {
			r.regLog[pos] = r.regLog[last]
			r.regPos[r.regLog[pos].SubID] = pos
		}
		r.regLog = r.regLog[:last]
		delete(r.regPos, m.SubID)
	}
	r.ctlMu.Unlock()
	r.stateMu.RUnlock()
	r.fedRemoveLocal(m.SubID)
	return Send(conn, &Message{Type: TypeRemoveOK, SubID: m.SubID})
}

// handleListen binds a connection as a client's delivery channel: a
// dedicated writer goroutine owns the write side from here on, and the
// listen ack is queued ahead of any delivery so it is the first frame
// on the wire. A resuming listen presents the client's last-seen
// cursor; retained deliveries past it are replayed right behind the
// ack, and the unrecoverable remainder is reported as the ack's gap.
func (r *Router) handleListen(conn net.Conn, m *Message) error {
	if m.ClientID == "" {
		return errors.New("listen without client identity")
	}
	// Clients learn their deployment's scheme from the subscribe ack
	// and tag subsequent listens; a tagged mismatch is rejected so a
	// client homed on the wrong-scheme router fails loudly instead of
	// waiting for deliveries that can never match. Untagged listens
	// (a client that has not subscribed yet) pass — deliveries carry
	// only group-key-sealed payloads, nothing scheme-encoded.
	if m.Scheme != "" {
		if err := r.checkScheme(m.Scheme); err != nil {
			return err
		}
	}
	return r.delivery.attach(m.ClientID, conn, &Message{Type: TypeListenOK}, m.Cursor, m.Resume)
}

// refFor interns a client identity as the engines' compact client
// reference.
func (r *Router) refFor(clientID string) uint32 {
	r.ctlMu.RLock()
	ref, ok := r.clientRef[clientID]
	r.ctlMu.RUnlock()
	if ok {
		return ref
	}
	r.ctlMu.Lock()
	defer r.ctlMu.Unlock()
	if ref, ok := r.clientRef[clientID]; ok {
		return ref
	}
	ref = uint32(len(r.refName))
	r.clientRef[clientID] = ref
	r.refName = append(r.refName, clientID)
	return ref
}

// registrationLabel names the registration-tag key K_reg in the KDF
// and opens the tagged bytes. K_reg is derived from SK's MAC key, so it
// is held by exactly the parties SK is, seals and rotates with it, and
// is independent of the envelope MAC key it is derived from.
const registrationLabel = "scbr-register-batch"

// registrationTag is step ②'s authenticator: HMAC-SHA256 under K_reg
// over the client identity and every item blob of one frame, streamed
// in one pass. Every variable-length field is length-prefixed, and so
// is the item count, so no two distinct frames share tagged bytes and
// the infrastructure can neither re-route subscriptions between clients
// nor re-cut a frame's boundaries.
func registrationTag(sk *scrypto.SymmetricKey, clientID string, items []BatchItem) []byte {
	mac := hmac.New(sha256.New, scrypto.DeriveKey(sk.MAC[:], registrationLabel, sha256.Size))
	var n [8]byte
	length := func(v int) {
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		mac.Write(n[:])
	}
	mac.Write([]byte(registrationLabel + "\x00"))
	length(len(clientID))
	mac.Write([]byte(clientID))
	length(len(items))
	for _, it := range items {
		length(len(it.Blob))
		mac.Write(it.Blob)
	}
	return mac.Sum(nil)
}
