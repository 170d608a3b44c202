// Command scbr-router runs the SCBR routing engine: it launches the
// (simulated) SGX enclave, writes the trust bundle a publisher needs
// to attest it, and serves registrations, publications, and client
// delivery channels until interrupted.
//
// Usage:
//
//	scbr-router -listen 127.0.0.1:7070 -trust router-trust.json \
//	    [-scheme sgx-plain|aspe] \
//	    [-partitions 4] [-switchless] [-epc 93] [-pad 0] [-delivery-queue 256] \
//	    [-router-id r1 -peer host:port -peer-trust peer-trust.json ...] \
//	    [-metrics-addr 127.0.0.1:7079]
//
// followed by scbr-publisher and scbr-subscriber pointed at it.
//
// Federation: give each router a -router-id and point -peer at the
// routers it should dial; the routers mutually attest and form an
// overlay that forwards publications toward matching downstream
// subscribers. Each -peer-trust file (written by the peer at its own
// startup) teaches this router the peer's platform key and pinned
// enclave identity.
//
// Observability: -metrics-addr serves the enclave meter aggregate,
// per-slice meters, delivery-queue depths, delivery counters,
// enqueue→write delivery-latency percentiles (p50/p95/p99, total and
// per client), federation counters, per-slice EPC footprints (store
// bytes, budget, resident high-water mark) with the planner's
// recommended partition count, and the shard→slice placement
// snapshot as JSON on GET /metrics (expvar-style, poll with curl).
//
// Elasticity: the same address serves the control plane —
//
//	curl -X POST 'http://host:7079/control/repartition?partitions=4'
//
// live-migrates the subscription database onto 4 matcher slices
// (growing or shrinking the enclave fleet online) and returns the new
// placement snapshot; partitions=0 auto-sizes the fleet from the
// measured EPC footprints. -placement-shards/-placement-seed tune the
// placement map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"scbr"
	"scbr/internal/broker"
	"scbr/internal/deploy"
	"scbr/internal/sgx"
)

// enclaveImage is the measured router code; publishers pin its
// MRENCLAVE via the trust bundle.
var enclaveImage = []byte("scbr routing engine enclave image v1.0")

// repeatable collects repeated string flags.
type repeatable []string

func (r *repeatable) String() string     { return fmt.Sprint(*r) }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scbr-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var peers, peerTrust repeatable
	var (
		listen      = flag.String("listen", "127.0.0.1:7070", "address to serve on")
		trust       = flag.String("trust", "router-trust.json", "path to write the trust bundle")
		epcMB       = flag.Uint64("epc", scbr.DefaultEPCBytes>>20, "usable EPC in MB")
		platform    = flag.String("platform", "local-platform", "platform identity for attestation")
		pad         = flag.Int("pad", 0, "engine record padding in bytes")
		schemeName  = flag.String("scheme", scbr.SchemePlain, "matching scheme the slices store and match under (sgx-plain or aspe; must match the publisher's -scheme)")
		partitions  = flag.Int("partitions", 1, "enclave matcher slices to shard the subscription database across")
		placeShards = flag.Int("placement-shards", 0, "virtual shards registrations hash onto, the migration grain for /control/repartition (0 = default 64, max 256)")
		placeSeed   = flag.Int64("placement-seed", 0, "seed for the rendezvous shard→slice hash (0 = fixed built-in seed)")
		switchless  = flag.Bool("switchless", false, "charge the slice workers one enclave entry plus a queue poll per publication message (the paper's §6 border exchange) instead of an ecall each")
		queueLen    = flag.Int("delivery-queue", 0, "per-client delivery queue bound (0 = default 256)")
		overflow    = flag.String("overflow", "drop-oldest", "slow-consumer policy when a delivery queue fills: drop-oldest, disconnect, or pause")
		replayRing  = flag.Int("replay-ring", 0, "per-client delivery replay ring bound for cursor resume (0 = default 512, negative = disabled)")
		resumeWin   = flag.Duration("resume-window", 0, "how long a detached client's cursor/ring state is retained for resume (0 = default 5m)")
		drain       = flag.Duration("drain-timeout", 0, "shutdown drain bound for pending deliveries (0 = default 2s)")
		routerID    = flag.String("router-id", "", "overlay name of this router; enables federation")
		fedTTL      = flag.Int("federation-ttl", 0, "hop budget for forwarded publications (0 = default 8)")
		metricsAddr = flag.String("metrics-addr", "", "serve meter/delivery/federation counters as JSON on this address (empty = disabled)")
	)
	flag.Var(&peers, "peer", "peer router address to dial into the federation overlay (repeatable)")
	flag.Var(&peerTrust, "peer-trust", "trust bundle file of a federated peer, for mutual attestation (repeatable)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dev, err := scbr.NewDevice(nil)
	if err != nil {
		return err
	}
	quoter, err := scbr.NewQuoter(dev, *platform)
	if err != nil {
		return err
	}
	signer, err := scbr.NewKeyPair(nil)
	if err != nil {
		return err
	}
	// Measure the enclave identity with a short-lived probe and publish
	// the trust bundle *before* waiting on peers: a federated fleet
	// starting simultaneously bootstraps by exchanging these files.
	identity, err := measureIdentity(dev, signer, *epcMB<<20, *partitions)
	if err != nil {
		return err
	}
	bundle, err := deploy.NewTrustBundle(quoter, identity)
	if err != nil {
		return err
	}
	if err := bundle.Save(*trust); err != nil {
		return err
	}
	log.Printf("trust bundle written to %s (MRENCLAVE=%x…)", *trust, identity.MRENCLAVE[:8])

	policy, err := scbr.ParseOverflowPolicy(*overflow)
	if err != nil {
		return err
	}
	opts := []scbr.Option{
		scbr.WithScheme(*schemeName),
		scbr.WithEPC(*epcMB << 20),
		scbr.WithPadding(*pad),
		scbr.WithPartitions(*partitions),
		scbr.WithPlacementShards(*placeShards),
		scbr.WithPlacementSeed(*placeSeed),
		scbr.WithDeliveryQueue(*queueLen),
		scbr.WithOverflowPolicy(policy),
		scbr.WithReplayRing(*replayRing),
		scbr.WithResumeWindow(*resumeWin),
		scbr.WithDrainTimeout(*drain),
	}
	if *switchless {
		opts = append(opts, scbr.WithSwitchless())
	}
	if *routerID != "" || len(peers) > 0 {
		fedOpts, err := federationOptions(ctx, quoter, *routerID, peers, peerTrust, *fedTTL)
		if err != nil {
			return err
		}
		opts = append(opts, fedOpts...)
	}
	router, err := scbr.NewRouter(dev, quoter, enclaveImage, signer.Public(), opts...)
	if err != nil {
		return err
	}
	defer router.Close()
	launched := router.Identity()
	if launched != identity {
		return fmt.Errorf("launched enclave MRENCLAVE=%x… is not the MRENCLAVE=%x… already written to %s: no publisher could attest this router",
			launched.MRENCLAVE[:8], identity.MRENCLAVE[:8], *trust)
	}
	log.Printf("enclave launched: MRENCLAVE=%x…", launched.MRENCLAVE[:8])

	if *metricsAddr != "" {
		msrv, err := serveMetrics(*metricsAddr, router)
		if err != nil {
			return err
		}
		defer func() {
			shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = msrv.Shutdown(shutdownCtx)
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Printf("serving on %s (scheme %s, EPC %d MB, %d partitions, switchless=%v, peers=%d)",
		ln.Addr(), router.Scheme(), *epcMB, *partitions, *switchless, len(peers))

	if err := router.Serve(ctx, ln); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	log.Printf("shutting down")
	return nil
}

// measureIdentity launches a throwaway enclave with the router's
// per-slice launch parameters to learn the fleet identity without
// building the router yet. The EPC share is hashed into MRENCLAVE, so
// it is the router's own computation of it.
func measureIdentity(dev *scbr.Device, signer *scbr.KeyPair, epcBytes uint64, partitions int) (scbr.Identity, error) {
	probe, err := dev.Launch(enclaveImage, signer.Public(),
		sgx.EnclaveConfig{EPCBytes: broker.SliceEPCShare(epcBytes, partitions)})
	if err != nil {
		return scbr.Identity{}, err
	}
	defer probe.Terminate()
	return scbr.Identity{MRENCLAVE: probe.MRENCLAVE(), MRSIGNER: probe.MRSIGNER()}, nil
}

// federationOptions assembles the overlay options: this router's own
// platform plus every peer bundle's platform key feed one shared
// verification service, and each bundle's measurements join the
// pinned identity set peers are checked against. Peer bundles that do
// not exist yet are awaited — peers publish them at their own startup.
func federationOptions(ctx context.Context, quoter *scbr.Quoter, routerID string, peers, peerTrust []string, ttl int) ([]scbr.Option, error) {
	if routerID == "" {
		return nil, fmt.Errorf("federation needs -router-id")
	}
	svc := scbr.NewAttestationService()
	svc.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	var ids []scbr.Identity
	for _, path := range peerTrust {
		bundle, err := awaitTrustBundle(ctx, path)
		if err != nil {
			return nil, err
		}
		key, id, err := bundle.Platform()
		if err != nil {
			return nil, fmt.Errorf("peer trust %s: %w", path, err)
		}
		svc.RegisterPlatform(bundle.PlatformID, key)
		ids = append(ids, id)
	}
	opts := []scbr.Option{
		scbr.WithRouterID(routerID),
		scbr.WithPeers(peers...),
		scbr.WithPeerVerifier(svc, ids...),
	}
	if ttl > 0 {
		opts = append(opts, scbr.WithFederationTTL(ttl))
	}
	return opts, nil
}

// awaitTrustBundle polls for a peer's bundle file for up to 30s.
func awaitTrustBundle(ctx context.Context, path string) (*deploy.TrustBundle, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		bundle, err := deploy.LoadTrustBundle(path)
		if err == nil {
			return bundle, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("peer trust bundle %s never appeared: %w", path, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// serveMetrics exposes the router's observability surface as JSON on
// GET /metrics and the elasticity control plane on POST
// /control/repartition. Unknown paths 404, wrong methods 405 with an
// Allow header, and every body — errors included — is JSON.
func serveMetrics(addr string, router *scbr.Router) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no such path %q", r.URL.Path))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			httpError(w, http.StatusMethodNotAllowed, "metrics are read-only: use GET")
			return
		}
		snapshot := struct {
			Meter          scbr.MemoryCounters     `json:"meter"`
			Slices         []scbr.MemoryCounters   `json:"slices"`
			Footprints     []scbr.SliceFootprint   `json:"footprints"`
			Recommended    int                     `json:"recommended_partitions"`
			DataPlane      scbr.DataPlaneStats     `json:"data_plane"`
			Placement      scbr.PlacementSnapshot  `json:"placement"`
			DeliveryQueues map[string]int          `json:"delivery_queues"`
			Delivery       scbr.DeliveryCounters   `json:"delivery"`
			Latency        scbr.DeliveryLatency    `json:"latency"`
			Federation     scbr.FederationCounters `json:"federation"`
		}{
			Meter:          router.MeterSnapshot(),
			Slices:         router.SliceMeterSnapshots(),
			Footprints:     router.SliceFootprints(),
			Recommended:    router.RecommendPartitions(),
			DataPlane:      router.DataPlaneStats(),
			Placement:      router.PlacementSnapshot(),
			DeliveryQueues: router.DeliveryQueueDepths(),
			Delivery:       router.DeliverySnapshot(),
			Latency:        router.DeliveryLatencySnapshot(),
			Federation:     router.FederationSnapshot(),
		}
		writeJSON(w, http.StatusOK, &snapshot)
	})
	mux.HandleFunc("/control/repartition", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			httpError(w, http.StatusMethodNotAllowed, "repartition mutates the fleet: use POST")
			return
		}
		k, err := strconv.Atoi(r.URL.Query().Get("partitions"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "partitions must be an integer slice count (0 = auto-size from the EPC footprint)")
			return
		}
		snap, err := router.Repartition(r.Context(), k)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		log.Printf("repartitioned to %d slices (epoch %d, %d shards moved, pause %s)",
			snap.Slices, snap.Epoch, snap.ShardsMoved, time.Duration(snap.LastPauseNanos))
		writeJSON(w, http.StatusOK, &snap)
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	log.Printf("metrics on http://%s/metrics, control on /control/repartition", ln.Addr())
	return srv, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
