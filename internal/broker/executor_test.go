package broker

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"testing"

	"scbr/internal/attest"
	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
	"scbr/internal/simmem"
)

// publishBurst subscribes one client on a two-slice router and
// publishes n matching events at it before the test reads a single
// delivery, so the whole burst sits in the pipeline, the client's
// delivery queue and the socket at once.
func publishBurst(t *testing.T, policy OverflowPolicy, n int) (*testSystem, <-chan Delivery) {
	t.Helper()
	sys := newTestSystemCfg(t, func(cfg *RouterConfig) {
		cfg.Partitions = 2
		cfg.OverflowPolicy = policy
	})
	alice, aliceRx := sys.attach("alice")
	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sys.publisher.Publish(bg, halQuote(42), []byte(fmt.Sprintf("q%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return sys, aliceRx
}

// TestOrderedBurstPause: a burst several times the pipeline's depth and
// the delivery queue's bound arrives complete and in publication order
// when the overflow policy is lossless — the merger, the job queues and
// finally the publishing connection wait instead.
func TestOrderedBurstPause(t *testing.T) {
	const n = 500
	_, aliceRx := publishBurst(t, OverflowPause, n)
	for i := 0; i < n; i++ {
		d := recvDelivery(t, aliceRx)
		if d.Err != nil {
			t.Fatal(d.Err)
		}
		if want := fmt.Sprintf("q%04d", i); string(d.Payload) != want {
			t.Fatalf("delivery %d = %q, want %q", i, d.Payload, want)
		}
	}
}

// TestOrderedBurstDropOldest: under the default policy the same burst
// may overflow the 256-slot delivery queue whenever the merger outruns
// the client's writer, and what overflows is evicted — so completeness
// is not the contract. What is: deliveries never reorder, the newest
// frame always survives, and every publication is either received or
// counted in DeliveriesDropped.
func TestOrderedBurstDropOldest(t *testing.T) {
	const n = 500
	sys, aliceRx := publishBurst(t, OverflowDropOldest, n)
	received, last := 0, -1
	for last != n-1 {
		d := recvDelivery(t, aliceRx)
		if d.Err != nil {
			t.Fatal(d.Err)
		}
		var i int
		if _, err := fmt.Sscanf(string(d.Payload), "q%04d", &i); err != nil {
			t.Fatalf("delivery %q: %v", d.Payload, err)
		}
		if i <= last {
			t.Fatalf("delivery %q arrived after q%04d", d.Payload, last)
		}
		received, last = received+1, i
	}
	// The eviction that made room for the last frame happened before it
	// was queued, so the counter is final once that frame is in hand.
	dropped := sys.router.DeliverySnapshot().DeliveriesDropped
	if uint64(received)+dropped != n {
		t.Fatalf("received %d + dropped %d != %d published", received, dropped, n)
	}
}

// corpusPhaseEvents is how many corpus events each of the corpus's two
// phases publishes (a multiple of every batch size used).
const corpusPhaseEvents = 48

var corpusClients = []string{"alice", "bob", "carol"}

// corpus is a scripted session — registrations, then two phases of
// publications — sealed and tagged once, so that it can be replayed
// into any router the same publisher provisioned, byte for byte. The
// bytes matter: a registration's slice is chosen by a hash of its
// sealed blob, whose nonce is random, so only a replay puts the same
// subscriptions on the same slices twice.
type corpus struct {
	registers []*Message
	phases    [2][]*Message // publish or publish-batch frames, a flush last
}

// buildCorpus draws the session from a fixed seed. Payloads stay in
// the clear (the router never opens them), which keeps the observed
// delivery sequences legible. Only flush events carry the FLUSH symbol,
// and every client subscribes to it.
func buildCorpus(t *testing.T, pub *Publisher, batch int) *corpus {
	t.Helper()
	seal := func(raw []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := scrypto.Seal(pubSK(pub), raw)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	rng := rand.New(rand.NewSource(18))
	symbols := []string{"HAL", "IBM", "ACME"}
	c := &corpus{}
	for _, name := range corpusClients {
		specs := []pubsub.SubscriptionSpec{{Predicates: []pubsub.Predicate{
			{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str("FLUSH")},
		}}}
		for i := 0; i < 6; i++ {
			specs = append(specs, pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
				{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str(symbols[rng.Intn(len(symbols))])},
				{Attr: "price", Op: pubsub.OpLt, Value: pubsub.Float(float64(10 + rng.Intn(90)))},
			}})
		}
		for _, spec := range specs {
			c.registers = append(c.registers, registerFrame(pub, name, seal(pubsub.EncodeSubscriptionSpec(spec))))
		}
	}
	quote := func(symbol string, price float64) []byte {
		return seal(pubsub.EncodeEventSpec(pubsub.EventSpec{Attrs: []pubsub.NamedValue{
			{Name: "symbol", Value: pubsub.Str(symbol)},
			{Name: "price", Value: pubsub.Float(price)},
		}}))
	}
	seq := 0
	for ph := range c.phases {
		for sent := 0; sent < corpusPhaseEvents; sent += batch {
			items := make([]BatchItem, batch)
			for i := range items {
				items[i] = BatchItem{
					Blob:    quote(symbols[rng.Intn(len(symbols))], float64(rng.Intn(100))),
					Payload: []byte(fmt.Sprintf("e%03d", seq)),
				}
				seq++
			}
			m := &Message{Type: TypePublishBatch, Items: items}
			if batch == 1 {
				m = &Message{Type: TypePublish, Blob: items[0].Blob, Payload: items[0].Payload}
			}
			c.phases[ph] = append(c.phases[ph], m)
		}
		c.phases[ph] = append(c.phases[ph], &Message{Type: TypePublish, Blob: quote("FLUSH", 0), Payload: []byte("flush")})
	}
	return c
}

// corpusRun is what one replay of the corpus observed.
type corpusRun struct {
	deliveries map[string][]string // per client, in arrival order
	meter      simmem.Counters
}

// replayCorpus provisions r from pub and plays the corpus into it over
// one connection: the registrations, phase one, a resize to k2 slices,
// phase two. The driver is strictly sequential — each phase ends when
// every client holds its flush delivery, which proves all slices have
// matched everything before it — so the slices' simulated memory sees
// the same accesses in the same order on every replay.
func replayCorpus(t *testing.T, r *Router, pub *Publisher, c *corpus, k2 int) corpusRun {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Serve(bg, ln) }()
	t.Cleanup(func() { r.Close(); _ = ln.Close() })
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn
	}
	if err := pub.ConnectRouter(bg, dial()); err != nil {
		t.Fatal(err)
	}
	script := dial()
	for _, m := range c.registers {
		if err := Send(script, m); err != nil {
			t.Fatal(err)
		}
		if err := expect(mustRecv(t, script), TypeRegisterBatchOK); err != nil {
			t.Fatal(err)
		}
	}
	listeners := make(map[string]net.Conn, len(corpusClients))
	for _, name := range corpusClients {
		conn := dial()
		if err := Send(conn, &Message{Type: TypeListen, ClientID: name}); err != nil {
			t.Fatal(err)
		}
		if err := expect(mustRecv(t, conn), TypeListenOK); err != nil {
			t.Fatal(err)
		}
		listeners[name] = conn
	}

	run := corpusRun{deliveries: make(map[string][]string, len(corpusClients))}
	for ph, frames := range c.phases {
		if ph == 1 {
			if _, err := r.Repartition(bg, k2); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range frames {
			if err := Send(script, m); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range corpusClients {
			for {
				d := mustRecv(t, listeners[name])
				if d.Type != TypeDeliver {
					t.Fatalf("%s: unexpected %q frame", name, d.Type)
				}
				if string(d.Payload) == "flush" {
					break
				}
				ids := append([]uint64(nil), d.SubIDs...)
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				run.deliveries[name] = append(run.deliveries[name], fmt.Sprintf("%s%v", d.Payload, ids))
			}
		}
	}
	run.meter = r.MeterSnapshot()
	return run
}

// TestTransitionPolicyDifferential pins what RouterConfig.Switchless
// may change. The same corpus, replayed under both settings, must
// produce the same deliveries to every client in the same order, and
// the same simulated counters — except Transitions and Cycles, which
// differ by exactly the two per-message charges: a call-gate round trip
// per slice per wire message on one side; one entry per worker plus a
// queue poll per slice per message on the other.
func TestTransitionPolicyDifferential(t *testing.T) {
	for _, tc := range []struct{ k, k2, batch int }{
		{1, 2, 1}, {1, 2, 8}, {3, 2, 1}, {3, 2, 8},
	} {
		t.Run(fmt.Sprintf("k=%d/batch=%d", tc.k, tc.batch), func(t *testing.T) {
			f := newRestartFixture(t)
			f.cfg.Partitions = tc.k
			f.cfg.OverflowPolicy = OverflowPause
			ias := attest.NewService()
			ias.RegisterPlatform(f.quoter.PlatformID(), f.quoter.AttestationKey())
			// Both routers run one measured image, so one publisher
			// (one SK, one signing key) provisions both.
			ecallRouter := f.newRouter()
			f.cfg.Switchless = true
			polledRouter := f.newRouter()
			pub, err := NewPublisher(ias, ecallRouter.Identity())
			if err != nil {
				t.Fatal(err)
			}
			c := buildCorpus(t, pub, tc.batch)
			ecall := replayCorpus(t, ecallRouter, pub, c, tc.k2)
			polled := replayCorpus(t, polledRouter, pub, c, tc.k2)

			if !reflect.DeepEqual(ecall.deliveries, polled.deliveries) {
				t.Fatalf("deliveries differ:\n ecall  %v\n polled %v", ecall.deliveries, polled.deliveries)
			}
			for _, name := range corpusClients {
				if len(ecall.deliveries[name]) == 0 {
					t.Fatalf("the corpus delivered nothing to %s", name)
				}
			}

			// MeterSnapshot sums the slices alive at the end. Each phase
			// is corpusPhaseEvents/batch messages and one flush; slice i
			// saw phase one if i < k and phase two if i < k2.
			msgs := uint64(corpusPhaseEvents/tc.batch + 1)
			var crossings uint64
			for i := 0; i < tc.k2; i++ {
				crossings += msgs
				if i < tc.k {
					crossings += msgs
				}
			}
			workers := uint64(tc.k2)
			cost := simmem.DefaultCost()
			want := polled.meter
			want.Transitions += crossings - workers
			want.Cycles += crossings*cost.EnclaveTransitionCycles -
				(crossings*cost.SwitchlessPollCycles + workers*cost.EnclaveTransitionCycles)
			if ecall.meter != want {
				t.Fatalf("counters differ beyond the two per-message charges:\n ecall  %+v\n polled %+v\n want   %+v", ecall.meter, polled.meter, want)
			}
		})
	}
}
