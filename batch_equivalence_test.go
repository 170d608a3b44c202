package scbr_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"scbr"
)

// batchHarness is a full public-API deployment parameterised over the
// batch-first matrix: matching scheme, partition count, and the
// transition policy (switchless) the slice workers charge.
type batchHarness struct {
	router    *scbr.Router
	publisher *scbr.Publisher
	routerLn  net.Listener
	pubLn     net.Listener
}

func newBatchHarness(t *testing.T, ctx context.Context, schemeName string, partitions int, switchless bool, extra ...scbr.Option) *batchHarness {
	t.Helper()
	opts := []scbr.Option{
		scbr.WithScheme(schemeName,
			scbr.WithSchemeAttrs("symbol", "price", "volume"),
			scbr.WithSchemeSeed(17),
			scbr.WithSchemeScale("price", 200),
			scbr.WithSchemeScale("volume", 10_000)),
		scbr.WithPartitions(partitions),
	}
	if switchless {
		opts = append(opts, scbr.WithSwitchless())
	}
	opts = append(opts, extra...)
	seed := fmt.Sprintf("batch-%s-%d-%v", schemeName, partitions, switchless)
	dev, err := scbr.NewDevice([]byte(seed))
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := scbr.NewQuoter(dev, seed+"-platform")
	if err != nil {
		t.Fatal(err)
	}
	ias := scbr.NewAttestationService()
	ias.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	signer, err := scbr.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	h := &batchHarness{}
	h.router, err = scbr.NewRouter(dev, quoter, []byte(seed+" image"), signer.Public(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	h.routerLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = h.router.Serve(ctx, h.routerLn) }()
	t.Cleanup(h.router.Close)
	h.publisher, err = scbr.NewPublisher(ias, h.router.Identity(),
		scbr.WithScheme(schemeName,
			scbr.WithSchemeAttrs("symbol", "price", "volume"),
			scbr.WithSchemeSeed(17),
			scbr.WithSchemeScale("price", 200),
			scbr.WithSchemeScale("volume", 10_000)))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := net.Dial("tcp", h.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.publisher.ConnectRouter(ctx, rc); err != nil {
		t.Fatal(err)
	}
	h.pubLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.pubLn.Close() })
	go func() {
		for {
			conn, err := h.pubLn.Accept()
			if err != nil {
				return
			}
			go h.publisher.ServeClient(ctx, conn)
		}
	}()
	return h
}

func (h *batchHarness) client(t *testing.T, ctx context.Context, id string) *scbr.Client {
	t.Helper()
	c, err := scbr.NewClient(id)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.Dial("tcp", h.pubLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.ConnectPublisher(pc, h.publisher.PublicKey())
	rc, err := net.Dial("tcp", h.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(ctx, rc); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// delivered is one observed delivery: which event (by payload) reached
// a handle naming which subscriptions.
type delivered struct {
	payload string
	subIDs  []uint64
}

// drainUntil collects a handle's deliveries until the sentinel payload
// arrives, returning them sentinel excluded.
func drainUntil(t *testing.T, ctx context.Context, sub *scbr.Subscription, sentinel string) []delivered {
	t.Helper()
	var out []delivered
	for {
		del, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("draining deliveries: %v (got %v)", err, out)
		}
		if string(del.Payload) == sentinel {
			return out
		}
		ids := append([]uint64(nil), del.SubIDs...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out = append(out, delivered{payload: string(del.Payload), subIDs: ids})
	}
}

// TestPublishBatchEquivalence is the end-to-end batch-matching
// property across the full deployment matrix: a batch publish yields
// exactly the deliveries — same events, same subscription IDs, same
// per-client order — that the same events published one at a time
// yield, for both matching schemes, 1 and 4 partitions, and both
// transition policies of the one publication pipeline.
func TestPublishBatchEquivalence(t *testing.T) {
	events := []scbr.EventSpec{
		quoteEvent("HAL", 42, 100),   // narrow + wide
		quoteEvent("HAL", 75, 100),   // wide only
		quoteEvent("IBM", 42, 100),   // volume only (symbol mismatch)
		quoteEvent("HAL", 120, 9000), // volume only
		quoteEvent("HAL", 10, 8000),  // all three
	}
	for _, schemeName := range []string{scbr.SchemePlain, scbr.SchemeASPE} {
		for _, partitions := range []int{1, 4} {
			for _, switchless := range []bool{false, true} {
				name := fmt.Sprintf("%s/partitions=%d/switchless=%v", schemeName, partitions, switchless)
				t.Run(name, func(t *testing.T) {
					ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
					defer cancel()
					h := newBatchHarness(t, ctx, schemeName, partitions, switchless)
					client := h.client(t, ctx, "observer")
					subs := make([]*scbr.Subscription, 0, 3)
					for _, src := range []string{
						`symbol = "HAL", price < 50`,
						`symbol = "HAL", price < 100`,
						`volume > 500`,
					} {
						spec, err := scbr.ParseSpec(src)
						if err != nil {
							t.Fatal(err)
						}
						sub, err := client.Subscribe(ctx, spec)
						if err != nil {
							t.Fatal(err)
						}
						subs = append(subs, sub)
					}
					sentinel := quoteEvent("HAL", 1, 9999) // matches every subscription

					// Phase 1: the events one Publish at a time.
					for i, ev := range events {
						if err := h.publisher.Publish(ctx, ev, []byte(fmt.Sprintf("e%d", i))); err != nil {
							t.Fatal(err)
						}
					}
					if err := h.publisher.Publish(ctx, sentinel, []byte("flush-single")); err != nil {
						t.Fatal(err)
					}
					singles := make([][]delivered, len(subs))
					for i, sub := range subs {
						singles[i] = drainUntil(t, ctx, sub, "flush-single")
					}

					// Phase 2: the same events as one PublishBatch.
					batch := make([]scbr.Event, len(events))
					for i, ev := range events {
						batch[i] = scbr.Event{Header: ev, Payload: []byte(fmt.Sprintf("e%d", i))}
					}
					if err := h.publisher.PublishBatch(ctx, batch); err != nil {
						t.Fatal(err)
					}
					if err := h.publisher.Publish(ctx, sentinel, []byte("flush-batch")); err != nil {
						t.Fatal(err)
					}
					for i, sub := range subs {
						batched := drainUntil(t, ctx, sub, "flush-batch")
						if !reflect.DeepEqual(batched, singles[i]) {
							t.Fatalf("sub %d: batch deliveries %v != per-item deliveries %v", i, batched, singles[i])
						}
					}
				})
			}
		}
	}
}

func quoteEvent(symbol string, price float64, volume int64) scbr.EventSpec {
	return scbr.EventSpec{Attrs: []scbr.NamedValue{
		{Name: "symbol", Value: scbr.Str(symbol)},
		{Name: "price", Value: scbr.Float(price)},
		{Name: "volume", Value: scbr.Int(volume)},
	}}
}

// TestBatchPoolingStress hammers the pooled frame path — batch and
// single publishes interleaved from concurrent goroutines through the
// multi-partition pipeline — and checks that every
// delivered payload arrives exactly once and intact. Pooled send
// buffers, reused frame buffers, or recycled match jobs aliasing a
// retained delivery would surface here as corrupt/duplicate payloads,
// and as data races under -race.
func TestBatchPoolingStress(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	// OverflowPause: the collector must see every event exactly once,
	// so slow-consumer eviction is traded for producer backpressure.
	h := newBatchHarness(t, ctx, scbr.SchemePlain, 4, true, scbr.WithOverflowPolicy(scbr.OverflowPause))
	client := h.client(t, ctx, "collector")
	spec, err := scbr.ParseSpec(`volume > 0`) // matches every stress event
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.Subscribe(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	const (
		producers = 4
		rounds    = 20
		batchSize = 8
		perRound  = batchSize + 1 // one batch + one single publish
		totalSent = producers * rounds * perRound
	)
	var wg sync.WaitGroup
	errc := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := make([]scbr.Event, batchSize)
				for j := range batch {
					batch[j] = scbr.Event{
						Header:  quoteEvent("HAL", float64(j), int64(1+j)),
						Payload: []byte(fmt.Sprintf("p%d-r%d-b%d", p, r, j)),
					}
				}
				if err := h.publisher.PublishBatch(ctx, batch); err != nil {
					errc <- err
					return
				}
				if err := h.publisher.Publish(ctx, quoteEvent("HAL", 5, 50), []byte(fmt.Sprintf("p%d-r%d-s", p, r))); err != nil {
					errc <- err
					return
				}
			}
		}(p)
	}
	seen := make(map[string]int, totalSent)
	for i := 0; i < totalSent; i++ {
		del, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("delivery %d/%d: %v", i, totalSent, err)
		}
		seen[string(del.Payload)]++
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if len(seen) != totalSent {
		t.Fatalf("distinct payloads = %d, want %d (duplicate or corrupt frames)", len(seen), totalSent)
	}
	for payload, n := range seen {
		if n != 1 {
			t.Fatalf("payload %q delivered %d times", payload, n)
		}
	}
}
