// Workload definitions and the test bed: one live single-router
// deploy.Topology with a publisher, a filler database, a churn client
// and the measured listener, stood up through the same exported calls
// a deployment uses.

package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"scbr/internal/broker"
	"scbr/internal/deploy"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/streamhub"
)

// workload is one fixed traffic mix. The names and reasons are
// mirrored in BENCHMARK.json; the smoke test keeps the two in step.
type workload struct {
	name       string
	scheme     string
	switchless bool
	partitions int
	fillers    int // filler subscriptions in the database
	batch      int // events per publish call in the load phase
	payload    int // payload bytes per event
	churn      bool
	// openLoopRate is the fixed offered rate (events/s) of the traced
	// run's open-loop pass: about half the closed-loop capacity measured
	// on the 2-vCPU host the baseline was recorded on (a fifth on pipe,
	// where time.Sleep cannot pace a generator any faster).
	openLoopRate float64
}

var workloads = []workload{
	{name: "pipe", scheme: scheme.Plain, partitions: 1, fillers: 64, batch: 1, payload: 64, openLoopRate: 8000},
	{name: "match", scheme: scheme.Plain, partitions: 2, fillers: 10000, batch: 32, payload: 64, openLoopRate: 1500},
	{name: "churn", scheme: scheme.Plain, switchless: true, partitions: 2, fillers: 5000, batch: 16, payload: 1024, churn: true, openLoopRate: 2000},
	{name: "aspe", scheme: scheme.ASPE, partitions: 1, fillers: 4000, batch: 8, payload: 64, openLoopRate: 3000},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// window is the closed loop's in-flight bound in publish calls: 64
// events, but never fewer than 4 calls so a batch is always being
// matched while the next is on the wire.
func (w workload) window() int {
	if n := 64 / w.batch; n > 4 {
		return n
	}
	return 4
}

const (
	fillerClientID = "bench-filler"
	churnClientID  = "bench-churn"
	listenerID     = "bench-listener"

	// churnStepSubs subscriptions are registered and as many removed by
	// one churn step; churnEvery published events separate two steps.
	churnStepSubs = 32
	churnEvery    = 128

	// deliveryQueueLen is above the largest in-flight window (128
	// events), so a healthy run never overflows a queue and any drop
	// the router counts is a finding.
	deliveryQueueLen = 1024
)

// setupTimes is the breakdown of one stand-up.
type setupTimes struct {
	topologyUp     time.Duration // listeners, devices, enclave launches
	provision      time.Duration // publisher keys + attest/provision
	registerFiller time.Duration // RegisterBulk of the filler database
	attach         time.Duration // churn client + listener: keys, bind, attach, subscribe
	total          time.Duration
}

// bed is one stood-up deployment.
type bed struct {
	w      workload
	seed   int64
	cancel context.CancelFunc
	ctx    context.Context

	topo     *deploy.Topology
	router   *broker.Router
	pub      *broker.Publisher
	listener *broker.Client
	churner  *broker.Client
	all      *broker.Subscription // the match-all subscription
	probe    *broker.Subscription // the selective probe subscription

	fillers   []sub      // the database as generated, for the walk and its oracle
	churnSrc  *subSource // draws the churn subscriptions
	churnLive []uint64   // live churn subscription IDs, oldest first
	times     setupTimes
}

// standUp builds the deployment and times each stage.
func standUp(parent context.Context, w workload, seed int64) (*bed, error) {
	ctx, cancel := context.WithCancel(parent)
	b := &bed{w: w, seed: seed, ctx: ctx, cancel: cancel}
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()
	start := time.Now()
	mark := start
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(mark)
		mark = now
		return d
	}

	topo, err := deploy.NewTopology(ctx, deploy.TopologySpec{
		Routers:       1,
		Scheme:        w.scheme,
		SchemeOptions: schemeOptions(seed),
		Mutate: func(_ int, cfg *broker.RouterConfig) {
			cfg.Partitions = w.partitions
			cfg.Switchless = w.switchless
			cfg.DeliveryQueueLen = deliveryQueueLen
		},
	})
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	b.topo, b.router = topo, topo.Routers[0]
	b.times.topologyUp = lap()

	if b.pub, err = topo.NewPublisher(ctx, 0); err != nil {
		return nil, fmt.Errorf("publisher: %w", err)
	}
	b.times.provision = lap()

	// The filler and churn clients never listen, so their matches cost
	// the matcher but no delivery. One admission key serves both: the
	// registry only needs a key to wrap group keys they never ask for.
	admission, err := scrypto.NewKeyPair(nil)
	if err != nil {
		return nil, err
	}
	for _, id := range []string{fillerClientID, churnClientID} {
		if err := b.pub.Registry().Admit(id, admission.Public()); err != nil {
			return nil, err
		}
	}
	b.fillers = newSubSource(populationSeed(seed)).take(w.fillers)
	if _, err := b.pub.RegisterBulk(ctx, fillerClientID, topo.IDs[0], specsOf(b.fillers)); err != nil {
		return nil, fmt.Errorf("registering database: %w", err)
	}
	b.times.registerFiller = lap()

	if b.churner, err = broker.NewClient(churnClientID); err != nil {
		return nil, err
	}
	if err := topo.BindClient(ctx, b.pub, b.churner, 0); err != nil {
		return nil, err
	}
	// The standing churn pool: every churn step registers a fresh set
	// and removes the set registered by the step before it.
	b.churnSrc = newSubSource(churnSeed(seed))
	if b.churnLive, err = b.pub.RegisterBulk(ctx, churnClientID, topo.IDs[0], specsOf(b.churnSrc.take(churnStepSubs))); err != nil {
		return nil, fmt.Errorf("registering churn pool: %w", err)
	}
	if b.listener, err = broker.NewClient(listenerID); err != nil {
		return nil, err
	}
	if err := topo.ConnectClient(ctx, b.pub, b.listener, 0); err != nil {
		return nil, fmt.Errorf("attaching listener: %w", err)
	}
	if b.all, err = b.subscribeOnSliceZero(matchAllSub.spec()); err != nil {
		return nil, fmt.Errorf("subscribing match-all: %w", err)
	}
	if b.probe, err = b.subscribeOnSliceZero(probeSub.spec()); err != nil {
		return nil, fmt.Errorf("subscribing probe: %w", err)
	}
	b.times.attach = lap()
	b.times.total = time.Since(start)
	ok = true
	return b, nil
}

// subscribeOnSliceZero subscribes the listener to spec, again if need
// be, until the subscription sits on slice 0. The router places a
// subscription by a hash of its sealed blob, whose nonce is random, and
// on `match` the slice the probe lands on is worth 4 % of
// sim_us_per_event, 8 % of events_per_s and 12 % of reg_rtt_p50_us:
// left to chance, ten runs are a draw from two populations.
func (b *bed) subscribeOnSliceZero(spec pubsub.SubscriptionSpec) (*broker.Subscription, error) {
	for try := 0; try < 64; try++ {
		s, err := b.listener.Subscribe(b.ctx, spec)
		if err != nil {
			return nil, err
		}
		if b.router.PlacementSnapshot().Table[streamhub.ShardOf(s.ID())] == 0 {
			return s, nil
		}
		if err := b.listener.Unsubscribe(b.ctx, s.ID()); err != nil {
			return nil, err
		}
	}
	return nil, errors.New("no subscription landed on slice 0 in 64 tries")
}

// close tears the deployment down and waits for the clients' pumps.
func (b *bed) close() {
	b.cancel()
	if b.listener != nil {
		b.listener.Close()
	}
	if b.churner != nil {
		b.churner.Close()
	}
	if b.topo != nil {
		b.topo.Close()
	}
}
