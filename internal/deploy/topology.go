// Multi-router federation topologies. The paper's deployment is one
// service provider and one routing engine; the federation overlay
// composes several engines, and this helper stands up a whole overlay
// in process — one simulated SGX device per router, a shared
// attestation service vouching for every platform, a shared measured
// image so all routers carry one pinned identity, and attested peer
// links along the requested edges. Tests and examples build chains,
// cycles, and meshes from it.

package deploy

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"scbr/internal/attest"
	"scbr/internal/broker"
	"scbr/internal/federation"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
)

// TopologySpec describes the routers to stand up and their overlay links.
type TopologySpec struct {
	// Routers is the number of routers (≥ 1). Router i is named
	// "router-i" in the overlay.
	Routers int `json:"routers"`
	// Links lists directed dial edges {dialer, acceptor} by router
	// index. Each link is one bidirectional attested connection; a
	// chain of three routers is {{0,1},{1,2}}, a cycle adds {2,0}. A
	// topology without links launches no overlay, whatever the scheme.
	Links [][2]int `json:"links,omitempty"`
	// Image is the measured enclave image every router launches
	// (default: a fixed topology image). All routers must share it —
	// peer attestation pins the fleet's single identity.
	Image []byte `json:"image,omitempty"`
	// Mutate optionally adjusts each router's config before launch
	// (partitions, switchless, EPC, TTL, ...). Fields that define the
	// overlay — RouterID, Peers, PeerVerifier — are set after Mutate
	// and cannot be overridden.
	Mutate func(i int, cfg *broker.RouterConfig) `json:"-"`
	// PlacementShards sets every router's virtual-shard count — the
	// migration grain for Router.Repartition (0 = the broker default).
	// Applied after Mutate, like the overlay fields.
	PlacementShards int `json:"placement_shards,omitempty"`
	// PlacementSeed seeds every router's rendezvous shard→slice hash
	// (0 = the fixed built-in seed), so a topology's routers agree on
	// placement byte-for-byte.
	PlacementSeed int64 `json:"placement_seed,omitempty"`
	// Scheme selects the matching scheme every router runs (empty =
	// the default sgx-plain). Links need federation-digest support; a
	// topology without links launches no overlay, whatever the scheme.
	Scheme string `json:"scheme,omitempty"`
	// SchemeOptions parameterise the publishers NewPublisher builds
	// (e.g. the ASPE attribute universe).
	SchemeOptions []scheme.Option `json:"-"`

	// RouterSpecs optionally declares each router's expected load for
	// the deployment planner (must list exactly Routers entries). When
	// set, NewTopology runs Plan first and launches each router with
	// the planned EPCBytes and Partitions — applied after Mutate, like
	// the overlay fields — rejecting infeasible specs before any
	// enclave launches.
	RouterSpecs []RouterSpec `json:"router_specs,omitempty"`
	// Hosts optionally describes the heterogeneous machines the
	// planner packs routers onto. Packing is advisory in-process (all
	// routers still run locally); the plan records the assignment.
	Hosts []HostSpec `json:"hosts,omitempty"`
	// Attrs is the expected per-subscription attribute count the
	// footprint model is evaluated at (0 = DefaultPlanAttrs).
	Attrs int `json:"attrs,omitempty"`
	// Headroom is the fraction of each slice's EPC share the planner
	// keeps free (0 = DefaultHeadroom; must stay below 1).
	Headroom float64 `json:"headroom,omitempty"`
	// MaxPartitionsPerRouter caps planned per-router slice counts
	// (0 = DefaultMaxPartitionsPerRouter).
	MaxPartitionsPerRouter int `json:"max_partitions_per_router,omitempty"`
}

// Topology is a running overlay.
type Topology struct {
	spec TopologySpec
	// Service vouches for every router platform (register publishers'
	// verification against it).
	Service *attest.Service
	// Identity is the fleet's shared enclave identity.
	Identity attest.Identity
	// Routers, IDs, and Addrs are indexed by router number.
	Routers []*broker.Router
	IDs     []string
	Addrs   []string
	// Plan is the executed deployment plan (nil when the spec carried
	// no RouterSpecs and the routers launched with ad-hoc sizing).
	Plan *TopologyPlan

	listeners []net.Listener
}

// fleetSigner is the key every topology's enclave image is signed with,
// generated once per process. MRSIGNER names the ISV that signs the
// image, not a deployment, and a topology only ever uses the public
// half.
var fleetSigner = sync.OnceValues(func() (*scrypto.KeyPair, error) { return scrypto.NewKeyPair(nil) })

// NewTopology launches the overlay and serves every router. Callers
// must Close it.
func NewTopology(ctx context.Context, spec TopologySpec) (*Topology, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	var plan *TopologyPlan
	if spec.RouterSpecs != nil {
		var err error
		plan, err = Plan(spec)
		if err != nil {
			return nil, err
		}
	}
	backend, err := scheme.Lookup(spec.Scheme)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	federated := len(spec.Links) > 0
	if federated && !backend.Caps.FederationDigests {
		return nil, fmt.Errorf("deploy: scheme %q cannot form overlay links (no federation-digest support)", backend.Name)
	}
	image := spec.Image
	if len(image) == 0 {
		image = []byte("scbr federated router image v1")
	}
	signer, err := fleetSigner()
	if err != nil {
		return nil, fmt.Errorf("deploy: generating fleet signer: %w", err)
	}
	t := &Topology{spec: spec, Service: attest.NewService(), Plan: plan}
	ok := false
	defer func() {
		if !ok {
			t.Close()
		}
	}()

	// Listeners first, so every router knows its peers' addresses at
	// construction time regardless of launch order.
	for i := 0; i < spec.Routers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("deploy: listening for router %d: %w", i, err)
		}
		t.listeners = append(t.listeners, ln)
		t.Addrs = append(t.Addrs, ln.Addr().String())
		t.IDs = append(t.IDs, fmt.Sprintf("router-%d", i))
	}

	for i := 0; i < spec.Routers; i++ {
		dev, err := sgx.NewDevice(nil, simmem.DefaultCost())
		if err != nil {
			return nil, fmt.Errorf("deploy: device %d: %w", i, err)
		}
		quoter, err := attest.NewQuoter(dev, fmt.Sprintf("topology-platform-%d", i))
		if err != nil {
			return nil, fmt.Errorf("deploy: quoter %d: %w", i, err)
		}
		t.Service.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
		cfg := broker.RouterConfig{
			EnclaveImage:  image,
			EnclaveSigner: signer.Public(),
		}
		if spec.Mutate != nil {
			spec.Mutate(i, &cfg)
		}
		cfg.EnclaveImage = image
		cfg.EnclaveSigner = signer.Public()
		cfg.Scheme = spec.Scheme
		if plan != nil {
			// Planned sizing wins over Mutate, like the overlay fields:
			// the plan was validated as feasible, ad-hoc overrides were
			// not.
			cfg.EPCBytes = plan.Routers[i].EPCBudget
			cfg.Partitions = plan.Routers[i].Partitions
		}
		if spec.PlacementShards != 0 {
			cfg.PlacementShards = spec.PlacementShards
		}
		if spec.PlacementSeed != 0 {
			cfg.PlacementSeed = spec.PlacementSeed
		}
		// No PeerIdentities: a federated router pins the fleet's own.
		cfg.RouterID, cfg.Peers, cfg.PeerVerifier, cfg.PeerIdentities = "", nil, nil, nil
		if federated {
			cfg.RouterID, cfg.PeerVerifier = t.IDs[i], t.Service
			for _, l := range spec.Links {
				if l[0] == i {
					cfg.Peers = append(cfg.Peers, t.Addrs[l[1]])
				}
			}
		}
		router, err := broker.NewRouter(dev, quoter, cfg)
		if err != nil {
			return nil, fmt.Errorf("deploy: router %d: %w", i, err)
		}
		t.Routers = append(t.Routers, router)
		go func(r *broker.Router, ln net.Listener) { _ = r.Serve(ctx, ln) }(router, t.listeners[i])
	}
	t.Identity = t.Routers[0].Identity()
	ok = true
	return t, nil
}

// NewPublisher creates the overlay's service provider: it attests and
// provisions every router (the overlay shares one SK) and routes its
// own publications through router home.
func (t *Topology) NewPublisher(ctx context.Context, home int) (*broker.Publisher, error) {
	if home < 0 || home >= len(t.Routers) {
		return nil, fmt.Errorf("deploy: home router %d of %d", home, len(t.Routers))
	}
	codec, err := scheme.NewCodec(t.spec.Scheme, t.spec.SchemeOptions...)
	if err != nil {
		return nil, err
	}
	pub, err := broker.NewPublisherWithCodec(t.Service, t.Identity, codec)
	if err != nil {
		return nil, err
	}
	var dialer net.Dialer
	for i := range t.Routers {
		conn, err := dialer.DialContext(ctx, "tcp", t.Addrs[i])
		if err != nil {
			return nil, fmt.Errorf("deploy: dialing router %d: %w", i, err)
		}
		if err := pub.ConnectRouterNamed(ctx, t.IDs[i], conn); err != nil {
			return nil, fmt.Errorf("deploy: provisioning router %d: %w", i, err)
		}
	}
	if err := pub.SetDefaultRouter(t.IDs[home]); err != nil {
		return nil, err
	}
	return pub, nil
}

// ConnectClient homes a client on router home: it binds the client to
// the publisher over an in-process pipe (pub.ServeClient runs until
// the pipe closes) and attaches the client's delivery channel to its
// home router.
func (t *Topology) ConnectClient(ctx context.Context, pub *broker.Publisher, c *broker.Client, home int) error {
	if home < 0 || home >= len(t.Routers) {
		return fmt.Errorf("deploy: home router %d of %d", home, len(t.Routers))
	}
	clientSide, pubSide := net.Pipe()
	go pub.ServeClient(ctx, pubSide)
	c.ConnectPublisher(clientSide, pub.PublicKey())
	c.UseRouter(t.IDs[home])
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", t.Addrs[home])
	if err != nil {
		return fmt.Errorf("deploy: dialing home router %d: %w", home, err)
	}
	return c.Attach(ctx, conn)
}

// BindClient wires c to the publisher (over an in-process pipe) and
// homes it on router home — everything ConnectClient does except the
// delivery attach. Callers that manage their own delivery connections
// (e.g. resumable listeners that DialRouter and c.Resume, reconnecting
// on churn) use this so the client's pump semantics stay theirs.
func (t *Topology) BindClient(ctx context.Context, pub *broker.Publisher, c *broker.Client, home int) error {
	if home < 0 || home >= len(t.Routers) {
		return fmt.Errorf("deploy: home router %d of %d", home, len(t.Routers))
	}
	clientSide, pubSide := net.Pipe()
	go pub.ServeClient(ctx, pubSide)
	c.ConnectPublisher(clientSide, pub.PublicKey())
	c.UseRouter(t.IDs[home])
	return nil
}

// DialRouter opens a raw connection to router i — the delivery
// connection a resumable client hands to Resume.
func (t *Topology) DialRouter(i int) (net.Conn, error) {
	if i < 0 || i >= len(t.Addrs) {
		return nil, fmt.Errorf("deploy: router %d of %d", i, len(t.Addrs))
	}
	conn, err := net.Dial("tcp", t.Addrs[i])
	if err != nil {
		return nil, fmt.Errorf("deploy: dialing router %d: %w", i, err)
	}
	return conn, nil
}

// WaitFederation polls router i's federation counters until cond
// holds or the timeout elapses — the barrier tests use around
// asynchronous digest propagation.
func (t *Topology) WaitFederation(i int, timeout time.Duration, cond func(federation.Counters) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond(t.Routers[i].FederationSnapshot()) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deploy: router %d federation state never converged: %+v",
				i, t.Routers[i].FederationSnapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// WaitRemoteEntries blocks until router i's overlay has learned at
// least n digest entries from its peers — the barrier between
// subscribing on one router and publishing on another.
func (t *Topology) WaitRemoteEntries(i, n int, timeout time.Duration) error {
	return t.WaitFederation(i, timeout, func(c federation.Counters) bool {
		return c.RemoteEntries >= n
	})
}

// Close stops every router and listener.
func (t *Topology) Close() {
	for _, r := range t.Routers {
		r.Close()
	}
	for _, ln := range t.listeners {
		_ = ln.Close()
	}
}
