package broker

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"scbr/internal/attest"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
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

// corpus is a scripted exchange — registrations, then phases of
// publications — encoded and tagged once, so that it can be replayed
// into any router the same publisher provisioned, byte for byte. The
// bytes matter: a registration's slice is chosen by a hash of its
// blob, whose nonce (or ASPE randomisation) is random, so only a
// replay puts the same subscriptions on the same slices twice.
type corpus struct {
	early     []*Message // publications sent before the router is provisioned
	registers []*Message
	phases    [][]*Message // publish or publish-batch frames, a flush last
}

// corpusWriter encodes a corpus under one publisher's matching scheme.
// Payloads stay in the clear (the router never opens them), which
// keeps the observed delivery sequences legible. Only flush events
// carry the FLUSH symbol, and every client subscribes to it.
type corpusWriter struct {
	t   *testing.T
	pub *Publisher
	rng *rand.Rand
	seq int
}

var corpusSymbols = []string{"HAL", "IBM", "ACME"}

func newCorpusWriter(t *testing.T, pub *Publisher) *corpusWriter {
	return &corpusWriter{t: t, pub: pub, rng: rand.New(rand.NewSource(18))}
}

// registers draws each client's subscriptions: FLUSH and six bands.
func (w *corpusWriter) registers() []*Message {
	w.t.Helper()
	var frames []*Message
	for _, name := range corpusClients {
		specs := []pubsub.SubscriptionSpec{{Predicates: []pubsub.Predicate{
			{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str("FLUSH")},
		}}}
		for i := 0; i < 6; i++ {
			specs = append(specs, pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
				{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str(corpusSymbols[w.rng.Intn(len(corpusSymbols))])},
				{Attr: "price", Op: pubsub.OpLt, Value: pubsub.Float(float64(10 + w.rng.Intn(90)))},
			}})
		}
		for _, spec := range specs {
			enc, err := w.pub.codec.EncodeSubscription(spec)
			if err != nil {
				w.t.Fatal(err)
			}
			if w.pub.codec.Capabilities().SealedExchange {
				if enc, err = scrypto.Seal(pubSK(w.pub), enc); err != nil {
					w.t.Fatal(err)
				}
			}
			frames = append(frames, registerFrame(w.pub, name, enc))
		}
	}
	return frames
}

// header is a routable header blob for a quote.
func (w *corpusWriter) header(symbol string, price float64) []byte {
	w.t.Helper()
	blob, err := w.pub.encodeHeader(pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "symbol", Value: pubsub.Str(symbol)},
		{Name: "price", Value: pubsub.Float(price)},
	}})
	if err != nil {
		w.t.Fatal(err)
	}
	return blob
}

// frame is one wire message carrying n random quotes: a publish when
// n is 1, a publish-batch otherwise.
func (w *corpusWriter) frame(n int) *Message {
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = w.item(w.header(corpusSymbols[w.rng.Intn(len(corpusSymbols))], float64(w.rng.Intn(100))))
	}
	return w.message(items)
}

func (w *corpusWriter) item(blob []byte) BatchItem {
	w.seq++
	return BatchItem{Blob: blob, Payload: []byte(fmt.Sprintf("e%03d", w.seq-1))}
}

func (w *corpusWriter) message(items []BatchItem) *Message {
	if len(items) == 1 {
		return &Message{Type: TypePublish, Scheme: w.pub.Scheme(), Blob: items[0].Blob, Payload: items[0].Payload}
	}
	return &Message{Type: TypePublishBatch, Scheme: w.pub.Scheme(), Items: items}
}

// flush is the publication that ends a phase: every client matches it.
func (w *corpusWriter) flush() *Message {
	return &Message{Type: TypePublish, Scheme: w.pub.Scheme(), Blob: w.header("FLUSH", 0), Payload: []byte("flush")}
}

// buildCorpus draws the corpus from a fixed seed: two phases of
// corpusPhaseEvents events in frames of batch events, each phase
// ending with a flush.
func buildCorpus(t *testing.T, pub *Publisher, batch int) *corpus {
	t.Helper()
	w := newCorpusWriter(t, pub)
	c := &corpus{registers: w.registers(), phases: make([][]*Message, 2)}
	for ph := range c.phases {
		for sent := 0; sent < corpusPhaseEvents; sent += batch {
			c.phases[ph] = append(c.phases[ph], w.frame(batch))
		}
		c.phases[ph] = append(c.phases[ph], w.flush())
	}
	return c
}

// corpusRun is what one replay of the corpus observed.
type corpusRun struct {
	deliveries map[string][]string // per client, in arrival order
	meter      simmem.Counters
	phases     []simmem.Counters // each phase's share of meter
}

// replayCorpus provisions r from pub and plays the corpus into it over
// one connection: the early publications, the provisioning, the
// registrations, then the phases with a resize to k2 slices before
// each phase after the first. The replay is strictly sequential — each
// phase ends when every client holds its flush delivery, which proves
// all slices have matched everything before it — so the slices'
// simulated memory sees the same accesses in the same order on every
// replay. How a phase's frames reach the slices is the one choice:
// queued, every frame waits in the slices' queues before any worker
// drains (queueHeld), so each worker groups the phase by the drain
// rule alone; paced, each frame is matched and delivered before the
// next is sent, so every group is a lone message.
func replayCorpus(t *testing.T, r *Router, pub *Publisher, c *corpus, k2 int, queued bool) corpusRun {
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
	script := dial()
	sendPaced(t, r, script, c.early)
	if err := pub.ConnectRouter(bg, dial()); err != nil {
		t.Fatal(err)
	}
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
		if ph > 0 {
			if _, err := r.Repartition(bg, k2); err != nil {
				t.Fatal(err)
			}
		}
		before := r.MeterSnapshot()
		if queued {
			queueHeld(t, r, script, frames)
		} else {
			sendPaced(t, r, script, frames)
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
				run.deliveries[name] = append(run.deliveries[name], fmt.Sprintf("%s%v", d.Payload, d.SubIDs))
			}
		}
		run.phases = append(run.phases, r.MeterSnapshot().Sub(before))
	}
	run.meter = r.MeterSnapshot()
	return run
}

// fence returns once r has dispatched every frame sent on conn before
// it: the connection's loop answers a remove of a subscription that
// does not exist without touching a slice, and only after it has handed
// every publication ahead of it to the pipeline.
func fence(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := Send(conn, &Message{Type: TypeRemove, ClientID: "fence", SubID: math.MaxUint64}); err != nil {
		t.Fatal(err)
	}
	if m := mustRecv(t, conn); m.Type != TypeError {
		t.Fatalf("fence: got a %q frame", m.Type)
	}
}

// sendPaced sends each frame and waits until it has been matched and
// delivered before sending the next: every slice matches it alone.
func sendPaced(t *testing.T, r *Router, conn net.Conn, frames []*Message) {
	t.Helper()
	for _, m := range frames {
		if err := Send(conn, m); err != nil {
			t.Fatal(err)
		}
		fence(t, conn)
		r.drainPlane()
	}
}

// queueHeld sends frames with every slice's partition lock held, so no
// worker can drain, and releases the slices once each queue shows the
// whole stream (all of it, or all but the job the worker woke for and
// holds while it waits for the lock). Each worker's first drain then
// sees every frame queued, and how it groups them depends on the frames
// alone.
func queueHeld(t *testing.T, r *Router, conn net.Conn, frames []*Message) {
	t.Helper()
	r.planeMu.RLock()
	parts := append([]*partition(nil), r.parts...)
	r.planeMu.RUnlock()
	for _, p := range parts {
		p.mu.Lock()
	}
	defer func() {
		for _, p := range parts {
			p.mu.Unlock()
		}
	}()
	for _, m := range frames {
		if err := Send(conn, m); err != nil {
			t.Fatal(err)
		}
	}
	fence(t, conn)
	for _, p := range parts {
		if n := len(p.jobs); n < len(frames)-1 {
			t.Fatalf("slice %d queued %d of %d frames", p.idx, n, len(frames))
		}
	}
}

// drainGroups counts the enclave entries a slice worker makes of
// messages carrying sizes[i] items each when all of them are queued
// before it drains: the rule partition.drain applies — a group takes
// messages while it holds fewer than groupEvents items.
func drainGroups(sizes []int) uint64 {
	var groups uint64
	for i := 0; i < len(sizes); groups++ {
		n := 0
		for ; i < len(sizes) && n < groupEvents; i++ {
			n += sizes[i]
		}
	}
	return groups
}

// frameSizes lists the publication items each frame carries.
func frameSizes(frames []*Message) []int {
	sizes := make([]int, len(frames))
	for i, m := range frames {
		forEachPublication(m, func(_, _ []byte) { sizes[i]++ })
	}
	return sizes
}

// TestTransitionPolicyDifferential pins what RouterConfig.Switchless
// may change. The same corpus, replayed under both settings with every
// phase queued before the slices drain (so both group it alike), must
// produce the same deliveries to every client in the same order, and
// the same simulated counters — except Transitions and Cycles, which
// differ by exactly the two policies' charges: a call-gate round trip
// per slice per drained group on one side; one entry per worker plus a
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
			ecall := replayCorpus(t, ecallRouter, pub, c, tc.k2, true)
			polled := replayCorpus(t, polledRouter, pub, c, tc.k2, true)

			if !reflect.DeepEqual(ecall.deliveries, polled.deliveries) {
				t.Fatalf("deliveries differ:\n ecall  %v\n polled %v", ecall.deliveries, polled.deliveries)
			}
			for _, name := range corpusClients {
				if len(ecall.deliveries[name]) == 0 {
					t.Fatalf("the corpus delivered nothing to %s", name)
				}
			}

			// MeterSnapshot sums the slices alive at the end; slice i
			// saw phase one if i < k and phase two if i < k2. Each
			// slice drained each phase by the drain rule, and polled
			// once per message.
			var crossings, polls uint64
			for ph, frames := range c.phases {
				slices := min(tc.k, tc.k2)
				if ph > 0 {
					slices = tc.k2
				}
				crossings += uint64(slices) * drainGroups(frameSizes(frames))
				polls += uint64(slices * len(frames))
			}
			workers := uint64(tc.k2)
			cost := simmem.DefaultCost()
			want := polled.meter
			want.Transitions += crossings - workers
			want.Cycles += crossings*cost.EnclaveTransitionCycles -
				(polls*cost.SwitchlessPollCycles + workers*cost.EnclaveTransitionCycles)
			if ecall.meter != want {
				t.Fatalf("counters differ beyond the two policies' charges:\n ecall  %+v\n polled %+v\n want   %+v", ecall.meter, polled.meter, want)
			}
		})
	}
}

// queuedCorpus is a stream that exercises every edge of the drain: a
// publish sent before the router is provisioned, then one phase whose
// frames group as 1+7+32+1+32 (a group crossing one walk's width),
// 32+32 (a group closing exactly at it), 100 (past the width on its
// own) and 1+7+1, with a tampered header and an undecodable one among
// the lone publishes and the flush last.
func queuedCorpus(t *testing.T, pub *Publisher) *corpus {
	t.Helper()
	w := newCorpusWriter(t, pub)
	c := &corpus{early: []*Message{w.frame(1)}, registers: w.registers()}
	tampered := w.header("HAL", 5)
	tampered[len(tampered)-1] ^= 1
	undecodable := []byte("not an event header")
	if pub.codec.Capabilities().SealedExchange {
		var err error
		if undecodable, err = scrypto.Seal(pubSK(pub), undecodable); err != nil {
			t.Fatal(err)
		}
	}
	c.phases = [][]*Message{{
		w.frame(1), w.frame(7), w.frame(32), w.message([]BatchItem{w.item(tampered)}),
		w.frame(32), w.frame(32), w.frame(32), w.frame(100),
		w.message([]BatchItem{w.item(undecodable)}), w.frame(7), w.flush(),
	}}
	return c
}

// TestQueuedBatchesShareOneEntry holds the drain to "as if alone": the
// queued corpus, queued whole before any slice drains, reaches every
// client as the same deliveries — the same SubIDs in the same order —
// as the same stream sent one frame at a time, and each slice enters
// its enclave once per group the drain rule makes of the stream, where
// the paced stream costs one entry per frame. The publish sent before
// provisioning is dropped either way.
func TestQueuedBatchesShareOneEntry(t *testing.T) {
	for _, tc := range []struct {
		scheme string
		k      int
	}{
		{scheme.Plain, 1}, {scheme.Plain, 3}, {scheme.ASPE, 1}, {scheme.ASPE, 3},
	} {
		t.Run(fmt.Sprintf("%s/k=%d", tc.scheme, tc.k), func(t *testing.T) {
			f := newRestartFixture(t)
			f.cfg.Partitions = tc.k
			f.cfg.Scheme = tc.scheme
			f.cfg.OverflowPolicy = OverflowPause
			ias := attest.NewService()
			ias.RegisterPlatform(f.quoter.PlatformID(), f.quoter.AttestationKey())
			var codec scheme.Codec
			if tc.scheme == scheme.ASPE {
				codec = aspeTestCodec(t)
			}
			pacedRouter, queuedRouter := f.newRouter(), f.newRouter()
			pub, err := NewPublisherWithCodec(ias, pacedRouter.Identity(), codec)
			if err != nil {
				t.Fatal(err)
			}
			c := queuedCorpus(t, pub)
			paced := replayCorpus(t, pacedRouter, pub, c, tc.k, false)
			queued := replayCorpus(t, queuedRouter, pub, c, tc.k, true)

			if !reflect.DeepEqual(paced.deliveries, queued.deliveries) {
				t.Fatalf("deliveries differ:\n paced  %v\n queued %v", paced.deliveries, queued.deliveries)
			}
			early := string(c.early[0].Payload)
			for _, name := range corpusClients {
				if len(queued.deliveries[name]) == 0 {
					t.Fatalf("the corpus delivered nothing to %s", name)
				}
				for _, d := range queued.deliveries[name] {
					if strings.HasPrefix(d, early+"[") {
						t.Fatalf("%s received %s, published before provisioning", name, d)
					}
				}
			}

			frames := c.phases[0]
			groups := drainGroups(frameSizes(frames))
			if groups >= uint64(len(frames)) {
				t.Fatalf("the stream makes %d groups of %d frames: nothing to share", groups, len(frames))
			}
			k := uint64(tc.k)
			if got, want := paced.phases[0].Transitions, k*uint64(len(frames)); got != want {
				t.Fatalf("paced: %d transitions, want one per frame per slice (%d)", got, want)
			}
			if got, want := queued.phases[0].Transitions, k*groups; got != want {
				t.Fatalf("queued: %d transitions, want one per group per slice (%d)", got, want)
			}
		})
	}
}
