// Benchmarks at the root: wall-clock microbenchmarks of the substrates
// (engine match and registration, forest sharding, AES envelope, RSA
// hybrid, wire codecs) and the live-pipeline benches CI's bench job
// reads — BenchmarkEndToEndPublish and BenchmarkRepartitionPublish,
// which report simulated "simµs/op" next to wall clock and allocs.
//
// The paper's tables and figures are not benchmarked here:
// internal/exp's tests run each figure and ablation at a reduced
// config under `go test`, cmd/scbr-bench runs them at paper scale
// (EXPERIMENTS.md records the paper-vs-measured comparison), and
// benchmark/ measures sustained wall-clock throughput. Per-package
// microbenchmarks live next to their packages (internal/core,
// internal/simmem, internal/aspe).
package scbr_test

import (
	"context"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"scbr"
	"scbr/internal/core"
	scbrdeploy "scbr/internal/deploy"
	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
	"scbr/internal/simmem"
	"scbr/internal/workload"
)

func buildEngine(b *testing.B, n int, opts core.Options) (*core.Engine, []*pubsub.Event) {
	b.Helper()
	qs, err := workload.NewQuoteSet(1, 100, 250)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.SpecByName("e80a1")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(spec, qs, 11)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.NewEngine(simmem.NewPlainAccessor(simmem.DefaultCost()), pubsub.NewSchema(), opts)
	if err != nil {
		b.Fatal(err)
	}
	for i, s := range gen.Subscriptions(n) {
		if _, err := engine.Register(s, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	events := make([]*pubsub.Event, 0, 256)
	for _, p := range gen.Publications(256) {
		ev, err := p.Intern(engine.Schema())
		if err != nil {
			b.Fatal(err)
		}
		events = append(events, ev)
	}
	return engine, events
}

// BenchmarkEngineMatch measures real matching throughput at three
// database sizes.
func BenchmarkEngineMatch(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			engine, events := buildEngine(b, n, core.Options{})
			var out []core.MatchResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				out, err = engine.MatchAppend(events[i%len(events)], out[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRegister measures real registration throughput.
func BenchmarkEngineRegister(b *testing.B) {
	qs, err := workload.NewQuoteSet(1, 100, 250)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.SpecByName("e80a1")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(spec, qs, 13)
	if err != nil {
		b.Fatal(err)
	}
	subs := gen.Subscriptions(200_000)
	engine, err := core.NewEngine(simmem.NewPlainAccessor(simmem.DefaultCost()), pubsub.NewSchema(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Register(subs[i%len(subs)], uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSharding compares the equality-value-sharded forest
// against the paper's single root-scanned forest (DESIGN.md §5).
func BenchmarkAblationSharding(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"sharded", core.Options{}},
		{"single-forest", core.Options{DisableSharding: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			engine, events := buildEngine(b, 20_000, tc.opts)
			meter := engine.Accessor().Meter()
			before := meter.C
			var out []core.MatchResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				out, err = engine.MatchAppend(events[i%len(events)], out[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			delta := meter.C.Sub(before)
			b.ReportMetric(simmem.DefaultCost().Micros(delta.Cycles)/float64(b.N), "simµs/op")
		})
	}
}

// BenchmarkAESEnvelope measures the real header encryption path.
func BenchmarkAESEnvelope(b *testing.B) {
	key, err := scrypto.NewSymmetricKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	header := make([]byte, 256)
	env, err := scrypto.Seal(key, header)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seal", func(b *testing.B) {
		b.SetBytes(int64(len(header)))
		for i := 0; i < b.N; i++ {
			if _, err := scrypto.Seal(key, header); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.SetBytes(int64(len(header)))
		for i := 0; i < b.N; i++ {
			if _, err := scrypto.Open(key, env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRSAHybrid measures the client→publisher subscription leg.
func BenchmarkRSAHybrid(b *testing.B) {
	kp, err := scrypto.NewKeyPair(nil)
	if err != nil {
		b.Fatal(err)
	}
	sub := make([]byte, 200)
	ct, err := scrypto.EncryptPK(kp.Public(), sub)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scrypto.EncryptPK(kp.Public(), sub); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scrypto.DecryptPK(kp, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCodecs measures the wire encodings on the hot path.
func BenchmarkCodecs(b *testing.B) {
	spec := pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "symbol", Value: pubsub.Str("HAL")},
		{Name: "open", Value: pubsub.Float(48.7)},
		{Name: "close", Value: pubsub.Float(49.1)},
		{Name: "volume", Value: pubsub.Int(1_000_000)},
	}}
	raw, err := pubsub.EncodeEventSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode-event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pubsub.EncodeEventSpec(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pubsub.DecodeEventSpec(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndToEndPublish measures a full in-process deployment over
// loopback TCP — encrypt, route through the enclave matcher slices,
// deliver, decrypt — at 1 and 4 partitions. Each iteration publishes
// one workload event into a filler database (matching work, no
// deliveries) plus one probe event, and waits for the probe's
// delivery, so the number is true publish→delivery latency with the
// data plane loaded. Beside wall-clock, it reports the simulated
// matching makespan (the slowest slice's cycles — the deployment
// latency when slices run on their own cores, as in the paper's
// StreamHub setting); wall-clock gains from the fan-out require as
// many real cores as slices, which CI runners rarely have.
func BenchmarkEndToEndPublish(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("partitions=%d", k), func(b *testing.B) {
			benchEndToEndPublish(b, k, scbr.SchemePlain, 0)
		})
	}
	// ASPE variant: the identical single-partition deployment with the
	// software-only encrypted scheme on the data plane. Comparing its
	// simµs/op against partitions=1 above reproduces the paper's
	// headline plain-vs-ASPE matching gap (Figure 7) on the live
	// pipeline rather than the offline harness.
	b.Run("scheme=aspe", func(b *testing.B) {
		benchEndToEndPublish(b, 1, scbr.SchemeASPE, 0)
	})
	// Federated variant: the same probe round trip, but the publisher
	// and the probe subscriber sit on different routers of a 2-router
	// overlay, so every probe crosses an attested hop. Compare its
	// wall-clock and cross-hop simulated makespan against the
	// partitions=1 single-router baseline above to read the federation
	// overhead.
	b.Run("federated=2", benchFederatedPublish)
	// Batch variants: each iteration ships one PublishBatch of N load
	// events — one wire frame, one ring pass, one store pass per slice
	// — followed by the awaited probe publish. ns/op and simµs/op are
	// per *iteration* (N+1 events); ns/event divides by N+1. Per-event
	// cost and allocations should fall and simµs/op should grow
	// sub-linearly as N rises — the batch amortisation at work.
	for _, k := range []int{1, 4} {
		for _, n := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("partitions=%d/batch=%d", k, n), func(b *testing.B) {
				benchEndToEndPublish(b, k, scbr.SchemePlain, n)
			})
		}
	}
	for _, n := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("scheme=aspe/batch=%d", n), func(b *testing.B) {
			benchEndToEndPublish(b, 1, scbr.SchemeASPE, n)
		})
	}
}

// benchSchemeOptions parameterises the deployment's matching scheme:
// the ASPE universe spans the quote-corpus attributes plus the probe's
// "price".
func benchSchemeOptions(schemeName string) scbr.Option {
	return scbr.WithScheme(schemeName,
		scbr.WithSchemeAttrs(append(scbr.QuoteAttrs(1), "price")...),
		scbr.WithSchemeSeed(29),
		scbr.WithSchemeScale("price", 100),
		scbr.WithSchemeScale("volume", 10_000_000),
		scbr.WithSchemeScale("year", 3_000))
}

// benchEndToEndPublish runs the probe round trip at the given
// partition count and scheme. batch == 0 publishes per event (two
// Publish calls per iteration: load then probe); batch == N ≥ 1 ships
// one PublishBatch of N events per iteration with the probe as the
// batch's last event.
func benchEndToEndPublish(b *testing.B, partitions int, schemeName string, batch int) {
	ctx := context.Background()
	dev := mustDevice(b)
	quoter, err := scbr.NewQuoter(dev, "bench-platform")
	if err != nil {
		b.Fatal(err)
	}
	ias := scbr.NewAttestationService()
	ias.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	signer, err := scbr.NewKeyPair(nil)
	if err != nil {
		b.Fatal(err)
	}
	router, err := scbr.NewRouter(dev, quoter, []byte("bench router image"), signer.Public(),
		scbr.WithPartitions(partitions), benchSchemeOptions(schemeName))
	if err != nil {
		b.Fatal(err)
	}
	routerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = router.Serve(ctx, routerLn) }()
	b.Cleanup(router.Close)

	publisher, err := scbr.NewPublisher(ias, router.Identity(), benchSchemeOptions(schemeName))
	if err != nil {
		b.Fatal(err)
	}
	rc, err := net.Dial("tcp", routerLn.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	if err := publisher.ConnectRouter(ctx, rc); err != nil {
		b.Fatal(err)
	}
	pubLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = pubLn.Close() })
	go func() {
		for {
			conn, err := pubLn.Accept()
			if err != nil {
				return
			}
			go publisher.ServeClient(ctx, conn)
		}
	}()
	dialPub := func() net.Conn {
		conn, err := net.Dial("tcp", pubLn.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		return conn
	}

	// Filler database: workload subscriptions owned by a client that
	// never listens, so they load the matchers without producing
	// deliveries. Bulk-registered — the population's content is the
	// same as per-subscription Subscribe calls, without paying an RSA
	// round trip per subscription in benchmark setup.
	fillerKeys, err := scbr.NewKeyPair(nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := publisher.Registry().Admit("filler", fillerKeys.Public()); err != nil {
		b.Fatal(err)
	}
	qs, err := scbr.NewQuoteSet(1, 100, 250)
	if err != nil {
		b.Fatal(err)
	}
	wspec, err := scbr.WorkloadByName("e80a1")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := scbr.NewWorkloadGenerator(wspec, qs, 23)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := publisher.RegisterBulk(ctx, "filler", "", gen.Subscriptions(2000)); err != nil {
		b.Fatal(err)
	}
	events := gen.Publications(256)

	// Probe: the subscription whose delivery each iteration awaits.
	probe, err := scbr.NewClient("probe")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(probe.Close)
	probe.ConnectPublisher(dialPub(), publisher.PublicKey())
	routerConn, err := net.Dial("tcp", routerLn.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	if err := probe.Attach(ctx, routerConn); err != nil {
		b.Fatal(err)
	}
	// The probe constrains "price", an attribute quote-corpus events
	// never carry, so no load event can ever satisfy it: each
	// iteration produces exactly the one probe delivery it awaits.
	spec, err := scbr.ParseSpec(`symbol = "HAL", price < 50`)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := probe.Subscribe(ctx, spec)
	if err != nil {
		b.Fatal(err)
	}
	header := pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "symbol", Value: pubsub.Str("HAL")},
		{Name: "price", Value: pubsub.Float(42)},
	}}

	before := router.SliceMeterSnapshots()
	b.ReportAllocs()
	b.ResetTimer()
	if batch > 0 {
		// One batch of N load events, then the awaited probe on the
		// same connection — the event mixture per iteration (N loads +
		// 1 probe) is constant across N, so per-event metrics compare
		// cleanly between batch sizes and against the unbatched
		// variants above.
		evs := make([]scbr.Event, batch)
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				evs[j] = scbr.Event{Header: events[(i*batch+j)%len(events)], Payload: []byte("load")}
			}
			if err := publisher.PublishBatch(ctx, evs); err != nil {
				b.Fatal(err)
			}
			if err := publisher.Publish(ctx, header, []byte("probe")); err != nil {
				b.Fatal(err)
			}
			if _, err := sub.Next(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(batch+1)), "ns/event")
	} else {
		for i := 0; i < b.N; i++ {
			if err := publisher.Publish(ctx, events[i%len(events)], []byte("load")); err != nil {
				b.Fatal(err)
			}
			if err := publisher.Publish(ctx, header, []byte("probe")); err != nil {
				b.Fatal(err)
			}
			if _, err := sub.Next(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
	after := router.SliceMeterSnapshots()
	var makespan uint64
	for i := range after {
		if d := after[i].Cycles - before[i].Cycles; d > makespan {
			makespan = d
		}
	}
	b.ReportMetric(scbr.DefaultCostModel().Micros(makespan)/float64(b.N), "simµs/op")
}

// benchFederatedPublish is the 2-router loopback deployment: filler
// subscriptions and the publisher's feed enter router 0, the probe
// subscriber is homed on router 1, and each awaited delivery crosses
// the attested link. The reported simulated makespan is the slowest
// enclave slice across *both* routers — the cross-hop latency when
// every router runs on its own machine, as in a real overlay.
func benchFederatedPublish(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	topo, err := scbrdeploy.NewTopology(ctx, scbrdeploy.TopologySpec{Routers: 2, Links: [][2]int{{0, 1}}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(topo.Close)
	publisher, err := topo.NewPublisher(ctx, 0)
	if err != nil {
		b.Fatal(err)
	}

	// Filler database on the ingress router: matching work, no
	// deliveries, exactly as the single-router baseline.
	filler, err := scbr.NewClient("filler")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(filler.Close)
	fillerConn, pubSide := net.Pipe()
	go publisher.ServeClient(ctx, pubSide)
	filler.ConnectPublisher(fillerConn, publisher.PublicKey())
	filler.UseRouter(topo.IDs[0])
	qs, err := scbr.NewQuoteSet(1, 100, 250)
	if err != nil {
		b.Fatal(err)
	}
	wspec, err := scbr.WorkloadByName("e80a1")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := scbr.NewWorkloadGenerator(wspec, qs, 23)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range gen.Subscriptions(2000) {
		if _, err := filler.Subscribe(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
	events := gen.Publications(256)

	// Probe subscriber on the far router; its interest propagates to
	// router 0 as a digest entry before the timed loop starts.
	probe, err := scbr.NewClient("probe")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(probe.Close)
	if err := topo.ConnectClient(ctx, publisher, probe, 1); err != nil {
		b.Fatal(err)
	}
	spec, err := scbr.ParseSpec(`symbol = "HAL", price < 50`)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := probe.Subscribe(ctx, spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := topo.WaitRemoteEntries(0, 1, 30*time.Second); err != nil {
		b.Fatal(err)
	}
	header := pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "symbol", Value: pubsub.Str("HAL")},
		{Name: "price", Value: pubsub.Float(42)},
	}}

	before := make([][]simmem.Counters, len(topo.Routers))
	for i, r := range topo.Routers {
		before[i] = r.SliceMeterSnapshots()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := publisher.Publish(ctx, events[i%len(events)], []byte("load")); err != nil {
			b.Fatal(err)
		}
		if err := publisher.Publish(ctx, header, []byte("probe")); err != nil {
			b.Fatal(err)
		}
		if _, err := sub.Next(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var makespan uint64
	for i, r := range topo.Routers {
		after := r.SliceMeterSnapshots()
		for j := range after {
			if d := after[j].Cycles - before[i][j].Cycles; d > makespan {
				makespan = d
			}
		}
	}
	b.ReportMetric(scbr.DefaultCostModel().Micros(makespan)/float64(b.N), "simµs/op")
	fed := topo.Routers[0].FederationSnapshot()
	b.ReportMetric(float64(fed.Forwarded)/float64(b.N), "fwd/op")
}

func mustDevice(b *testing.B) *scbr.Device {
	b.Helper()
	dev, err := scbr.NewDevice([]byte("bench-device"))
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

// BenchmarkRepartitionPublish measures the data plane across online
// resizes. Each iteration is one Repartition cycle (2→4 slices, then
// back on the next iteration) with probe round trips flowing the whole
// time, so ns/op is resize wall time under load. The custom metrics
// are the availability story: p99-publish-ns is the 99th-percentile
// publish→delivery latency of the probes that ran while shards moved
// (the latency a live subscriber saw across the resize), and pause-ns
// the placement map's recorded flush-barrier hold — the window in
// which publications were actually fenced.
func BenchmarkRepartitionPublish(b *testing.B) {
	ctx := context.Background()
	dev := mustDevice(b)
	quoter, err := scbr.NewQuoter(dev, "bench-repartition-platform")
	if err != nil {
		b.Fatal(err)
	}
	ias := scbr.NewAttestationService()
	ias.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	signer, err := scbr.NewKeyPair(nil)
	if err != nil {
		b.Fatal(err)
	}
	router, err := scbr.NewRouter(dev, quoter, []byte("bench router image"), signer.Public(),
		scbr.WithPartitions(2))
	if err != nil {
		b.Fatal(err)
	}
	routerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = router.Serve(ctx, routerLn) }()
	b.Cleanup(router.Close)

	publisher, err := scbr.NewPublisher(ias, router.Identity())
	if err != nil {
		b.Fatal(err)
	}
	rc, err := net.Dial("tcp", routerLn.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	if err := publisher.ConnectRouter(ctx, rc); err != nil {
		b.Fatal(err)
	}
	pubLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = pubLn.Close() })
	go func() {
		for {
			conn, err := pubLn.Accept()
			if err != nil {
				return
			}
			go publisher.ServeClient(ctx, conn)
		}
	}()

	// Filler population: enough subscriptions that the moves carry
	// real freight, owned by a client that never listens.
	fillerKeys, err := scbr.NewKeyPair(nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := publisher.Registry().Admit("filler", fillerKeys.Public()); err != nil {
		b.Fatal(err)
	}
	qs, err := scbr.NewQuoteSet(1, 100, 250)
	if err != nil {
		b.Fatal(err)
	}
	wspec, err := scbr.WorkloadByName("e80a1")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := scbr.NewWorkloadGenerator(wspec, qs, 23)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := publisher.RegisterBulk(ctx, "filler", "", gen.Subscriptions(1000)); err != nil {
		b.Fatal(err)
	}

	probe, err := scbr.NewClient("probe")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(probe.Close)
	pubConn, err := net.Dial("tcp", pubLn.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	probe.ConnectPublisher(pubConn, publisher.PublicKey())
	routerConn, err := net.Dial("tcp", routerLn.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	if err := probe.Attach(ctx, routerConn); err != nil {
		b.Fatal(err)
	}
	spec, err := scbr.ParseSpec(`symbol = "HAL", price < 50`)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := probe.Subscribe(ctx, spec)
	if err != nil {
		b.Fatal(err)
	}
	header := pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "symbol", Value: pubsub.Str("HAL")},
		{Name: "price", Value: pubsub.Float(42)},
	}}

	var lat []int64
	var maxPause int64
	targets := [2]int{4, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, 1)
		go func(k int) {
			_, err := router.Repartition(ctx, k)
			done <- err
		}(targets[i%2])
		for resizing := true; resizing; {
			select {
			case err := <-done:
				if err != nil {
					b.Fatal(err)
				}
				resizing = false
			default:
			}
			start := time.Now()
			if err := publisher.Publish(ctx, header, []byte("probe")); err != nil {
				b.Fatal(err)
			}
			if _, err := sub.Next(ctx); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(start).Nanoseconds())
		}
		if p := router.PlacementSnapshot().LastPauseNanos; p > maxPause {
			maxPause = p
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		idx := len(lat) * 99 / 100
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		b.ReportMetric(float64(lat[idx]), "p99-publish-ns")
	}
	b.ReportMetric(float64(maxPause), "pause-ns")
}
