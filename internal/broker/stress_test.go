package broker

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scbr/internal/pubsub"
)

// dataPlaneModes runs a subtest per transition policy of the
// partitioned data plane.
func dataPlaneModes(t *testing.T, partitions int, body func(t *testing.T, sys *testSystem)) {
	t.Helper()
	for _, tc := range []struct {
		name   string
		mutate func(cfg *RouterConfig)
	}{
		{"ecall", func(cfg *RouterConfig) { cfg.Partitions = partitions }},
		{"switchless", func(cfg *RouterConfig) {
			cfg.Partitions = partitions
			cfg.Switchless = true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body(t, newTestSystemCfg(t, tc.mutate))
		})
	}
}

// subscribeOnly registers a subscription for id without binding a
// delivery channel.
func subscribeOnly(t *testing.T, sys *testSystem, id string, spec pubsub.SubscriptionSpec) {
	t.Helper()
	c, err := NewClient(id)
	if err != nil {
		t.Fatal(err)
	}
	pubConn, err := net.Dial("tcp", sys.pubLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.ConnectPublisher(pubConn, sys.publisher.PublicKey())
	if _, err := c.Subscribe(bg, spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
}

// stallPayloadLen sizes the payloads of the tests that need a stalled
// listener's writer to block for real: 64 of them must not fit in the
// kernel's socket buffers (the send side alone autotunes to 4 MiB on
// Linux). Deliver frames carry the payload as raw bytes, so the
// payload is the frame.
const stallPayloadLen = 128 << 10

// stalledListener binds conn as id's delivery channel and then never
// reads it again: the router-side writer eventually blocks on the
// socket and the queue backs up — the deliberately misbehaving
// consumer of the slow-consumer tests.
func stalledListener(t *testing.T, sys *testSystem, id string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := Send(conn, &Message{Type: TypeListen, ClientID: id}); err != nil {
		t.Fatal(err)
	}
	ack, err := Recv(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := expect(ack, TypeListenOK); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestPartitionedEndToEnd exercises correctness across slices: a
// client whose subscriptions hash to different partitions still gets
// exactly one deduplicated delivery naming all matched subscriptions,
// and non-matching clients stay silent.
func TestPartitionedEndToEnd(t *testing.T) {
	dataPlaneModes(t, 4, func(t *testing.T, sys *testSystem) {
		alice, aliceRx := sys.attach("alice")
		_, bobRx := sys.attach("bob")
		subA, err := alice.Subscribe(bg, halSpec(50))
		if err != nil {
			t.Fatal(err)
		}
		subB, err := alice.Subscribe(bg, halSpec(100))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.publisher.Publish(bg, halQuote(42), []byte("both match")); err != nil {
			t.Fatal(err)
		}
		d := recvDelivery(t, aliceRx)
		if d.Err != nil || string(d.Payload) != "both match" {
			t.Fatalf("delivery = %+v", d)
		}
		if len(d.SubIDs) != 2 {
			t.Fatalf("delivery names %v, want both of [%d %d]", d.SubIDs, subA.ID(), subB.ID())
		}
		// However many slices matched, the client hears once.
		expectNoDelivery(t, aliceRx)
		expectNoDelivery(t, bobRx)
		if st := sys.router.DataPlaneStats(); st.Partitions != 4 || st.Subscriptions != 2 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

// TestStalledListenerDoesNotBlockOthers is the delivery-layer
// guarantee: a listener that stops reading its socket — while holding
// a subscription that matches everything — must neither delay
// deliveries to healthy clients nor stall publishers. The tiny
// delivery queue forces the slow-consumer policy to trip.
func TestStalledListenerDoesNotBlockOthers(t *testing.T) {
	dataPlaneModes(t, 2, func(t *testing.T, sys *testSystem) {
		const (
			numPublish = 100
			payloadLen = 64 << 10 // overwhelm socket buffering so the stall is real
		)
		alice, aliceRx := sys.attach("alice")
		if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
			t.Fatal(err)
		}
		subscribeOnly(t, sys, "mallory", halSpec(50))
		stalled := stalledListener(t, sys, "mallory")
		_ = stalled

		received := make(chan struct{})
		go func() {
			for i := 0; i < numPublish; i++ {
				d := <-aliceRx
				if d.Err != nil {
					t.Errorf("delivery %d: %v", i, d.Err)
					return
				}
			}
			close(received)
		}()

		payload := make([]byte, payloadLen)
		start := time.Now()
		for i := 0; i < numPublish; i++ {
			pubStart := time.Now()
			if err := sys.publisher.Publish(bg, halQuote(42), payload); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(pubStart); d > 2*time.Second {
				t.Fatalf("publish %d stalled for %v behind a blocked listener", i, d)
			}
		}
		select {
		case <-received:
		case <-time.After(20 * time.Second):
			t.Fatalf("healthy client starved behind a stalled listener (waited %v)", time.Since(start))
		}
	})
}

// TestStalledListenerDisconnected checks the OverflowDisconnect
// policy: once the stalled client's bounded queue overflows, the
// router cuts the connection instead of buffering without limit.
func TestStalledListenerDisconnected(t *testing.T) {
	sys := newTestSystemCfg(t, func(cfg *RouterConfig) {
		cfg.Partitions = 2
		cfg.DeliveryQueueLen = 4
		cfg.OverflowPolicy = OverflowDisconnect
	})
	subscribeOnly(t, sys, "mallory", halSpec(50))
	stalled := stalledListener(t, sys, "mallory")
	payload := make([]byte, stallPayloadLen)
	for i := 0; i < 64; i++ {
		if err := sys.publisher.Publish(bg, halQuote(42), payload); err != nil {
			t.Fatal(err)
		}
	}
	// The router must close mallory's connection; draining it observes
	// the EOF once the in-flight frames are consumed.
	_ = stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1<<16)
	for {
		if _, err := stalled.Read(buf); err != nil {
			return // disconnected: policy enforced
		}
	}
}

// TestConcurrentDataPlaneStress runs the whole data plane at once
// under the race detector: parallel publishers, registration and
// removal churn, and a stalled listener, all against a partitioned
// router. The healthy subscriber must receive every publication.
func TestConcurrentDataPlaneStress(t *testing.T) {
	dataPlaneModes(t, 3, func(t *testing.T, sys *testSystem) {
		const (
			numPublish    = 120
			numPublishers = 2
			churnRounds   = 30
		)
		alice, aliceRx := sys.attach("alice")
		if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
			t.Fatal(err)
		}
		// bob churns registrations while his deliveries are drained and
		// discarded; mallory holds a matching subscription on a stalled
		// delivery socket.
		bob, bobRx := sys.attach("bob")
		go func() {
			for range bobRx {
			}
		}()
		subscribeOnly(t, sys, "mallory", halSpec(50))
		_ = stalledListener(t, sys, "mallory")

		var got atomic.Int64
		received := make(chan struct{})
		go func() {
			for d := range aliceRx {
				if d.Err != nil {
					t.Errorf("alice delivery: %v", d.Err)
					return
				}
				if got.Add(1) == numPublish*numPublishers {
					close(received)
					return
				}
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < numPublishers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < numPublish; i++ {
					if err := sys.publisher.Publish(bg, halQuote(42), []byte(fmt.Sprintf("p%d-%d", w, i))); err != nil {
						t.Errorf("publish: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < churnRounds; i++ {
				sub, err := bob.Subscribe(bg, halSpec(60+float64(i)))
				if err != nil {
					t.Errorf("churn subscribe: %v", err)
					return
				}
				if err := bob.Unsubscribe(bg, sub.ID()); err != nil {
					t.Errorf("churn unsubscribe: %v", err)
					return
				}
			}
		}()
		wg.Wait()
		select {
		case <-received:
		case <-time.After(30 * time.Second):
			t.Fatalf("alice received %d of %d publications", got.Load(), numPublish*numPublishers)
		}
		if st := sys.router.DataPlaneStats(); st.Subscriptions != 2 {
			t.Fatalf("after churn, %d subscriptions remain, want 2 (alice + mallory): %+v", st.Subscriptions, st)
		}
	})
}

// resumableClient wires a client for cursor-resumable delivery: a
// publisher connection, a subscription, and a delivery connection
// bound through Resume so the Subscription handle survives reconnects.
func resumableClient(t *testing.T, sys *testSystem, id string) (*Client, *Subscription, net.Conn) {
	t.Helper()
	c, err := NewClient(id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	pubConn, err := net.Dial("tcp", sys.pubLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.ConnectPublisher(pubConn, sys.publisher.PublicKey())
	sub, err := c.Subscribe(bg, halSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resume(bg, conn); err != nil {
		t.Fatal(err)
	}
	return c, sub, conn
}

// TestReconnectZeroLossUnderDropOldest is the at-least-once stress
// for the detached window: the subscriber's connection is killed
// mid-burst under the default DropOldest policy, a whole second wave
// of publications matches while it is away, and yet every matched
// publication arrives exactly once, in order — the replay ring covers
// the outage and the resume cursor dedupes the overlap. (Live-queue
// overflow and the client-side jump-sever recovery are covered by the
// delivery_test.go unit tests.)
func TestReconnectZeroLossUnderDropOldest(t *testing.T) {
	sys := newTestSystemCfg(t, func(cfg *RouterConfig) {
		cfg.Partitions = 2
		cfg.ReplayRingLen = 4096
		cfg.OverflowPolicy = OverflowDropOldest
	})
	const (
		wave1 = 100
		total = 200
	)
	alice, sub, conn := resumableClient(t, sys, "alice")

	// The publisher sends wave 1, then holds wave 2 until the
	// subscriber's delivery connection is provably dead — so wave
	// 2's frames are enqueued while the client is away and can
	// only reach it through the resume replay.
	outage := make(chan struct{})
	pubErr := make(chan error, 1)
	go func() {
		for i := 0; i < wave1; i++ {
			if err := sys.publisher.Publish(bg, halQuote(42), []byte(fmt.Sprintf("%04d", i))); err != nil {
				pubErr <- err
				return
			}
		}
		<-outage
		for i := wave1; i < total; i++ {
			if err := sys.publisher.Publish(bg, halQuote(42), []byte(fmt.Sprintf("%04d", i))); err != nil {
				pubErr <- err
				return
			}
		}
		pubErr <- nil
	}()

	done := make(chan error, 1)
	go func() {
		next := 0
		for next < total {
			d, err := sub.Next(bg)
			if err != nil {
				done <- fmt.Errorf("delivery %d: %w", next, err)
				return
			}
			if d.Err != nil {
				done <- fmt.Errorf("delivery %d: %w", next, d.Err)
				return
			}
			if got := string(d.Payload); got != fmt.Sprintf("%04d", next) {
				done <- fmt.Errorf("delivery %d out of order, duplicated, or lost: %q", next, got)
				return
			}
			next++
			if next == 25 {
				// Kill the delivery connection mid-burst; release
				// wave 2 only once the pump is dead, and resume only
				// once part of it is already enqueued router-side.
				_ = conn.Close()
				<-alice.DeliveryDone()
				close(outage)
				for sys.router.DeliverySnapshot().Enqueued <= wave1 {
					time.Sleep(time.Millisecond)
				}
				nc, err := net.Dial("tcp", sys.routerLn.Addr().String())
				if err != nil {
					done <- err
					return
				}
				gap, err := alice.Resume(bg, nc)
				if err != nil {
					done <- err
					return
				}
				if gap != 0 {
					done <- fmt.Errorf("resume at delivery %d lost %d frames beyond the ring", next, gap)
					return
				}
				conn = nc
			}
		}
		done <- nil
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("subscriber never received the full stream")
	}
	if err := <-pubErr; err != nil {
		t.Fatal(err)
	}
	// The reconnect was a real recovery: wave-2 frames enqueued
	// while the client was away came back from the ring.
	if got := sys.router.DeliverySnapshot(); got.DeliveriesReplayed == 0 {
		t.Fatalf("the reconnect replayed nothing: %+v", got)
	}
}

// TestReconnectGapReportedUnderDisconnect: under the legacy Disconnect
// policy with a replay ring smaller than the backlog, loss is not
// silent — the resume ack reports exactly how many deliveries fell off
// the ring, and the retained tail replays contiguously.
func TestReconnectGapReportedUnderDisconnect(t *testing.T) {
	sys := newTestSystemCfg(t, func(cfg *RouterConfig) {
		cfg.Partitions = 2
		cfg.DeliveryQueueLen = 4
		cfg.ReplayRingLen = 8
		cfg.OverflowPolicy = OverflowDisconnect
	})
	subscribeOnly(t, sys, "mallory", halSpec(50))
	stalled := stalledListener(t, sys, "mallory")
	const total = 64
	payload := make([]byte, stallPayloadLen)
	for i := 0; i < total; i++ {
		if err := sys.publisher.Publish(bg, halQuote(42), payload); err != nil {
			t.Fatal(err)
		}
	}
	// The stalled listener must have been cut by the policy, and every
	// publication accounted a cursor, before the resume is judged.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c := sys.router.DeliverySnapshot()
		if c.SlowConsumerDisconnects > 0 && c.Enqueued == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow-consumer policy never tripped: %+v", c)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = stalled.Close()

	// Resume from scratch: the ack must account for every one of the
	// total deliveries as either gap (evicted) or replay (retained).
	conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Send(conn, &Message{Type: TypeListen, ClientID: "mallory", Cursor: 0, Resume: true}); err != nil {
		t.Fatal(err)
	}
	hello := mustRecv(t, conn)
	if err := expect(hello, TypeListenOK); err != nil {
		t.Fatal(err)
	}
	if hello.Cursor != total {
		t.Fatalf("resume cursor = %d, want %d", hello.Cursor, total)
	}
	if hello.Gap == 0 || hello.Gap != total-8 {
		t.Fatalf("resume gap = %d, want %d (ring bound 8)", hello.Gap, total-8)
	}
	for want := uint64(total - 8 + 1); want <= total; want++ {
		m := mustRecv(t, conn)
		if m.Type != TypeDeliver || m.Cursor != want {
			t.Fatalf("replayed frame = %+v, want cursor %d", m, want)
		}
	}
	if got := sys.router.DeliverySnapshot(); got.DeliveriesReplayed != 8 || got.ReplayGapTotal != total-8 {
		t.Fatalf("delivery counters = %+v", got)
	}
}

// TestPartitionedSealRestore: seal/restore round-trips a partitioned
// database, landing every subscription back on the slice that issued
// its ID.
func TestPartitionedSealRestore(t *testing.T) {
	f := newRestartFixture(t)
	f.cfg.Partitions = 3
	r1 := f.newRouter()
	defer r1.Close()
	_, ids := f.populate(r1, 12)
	before := r1.DataPlaneStats()
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	r2 := f.newRouter()
	defer r2.Close()
	if err := r2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	after := r2.DataPlaneStats()
	if after.Subscriptions != len(ids) {
		t.Fatalf("restored %d subscriptions, want %d", after.Subscriptions, len(ids))
	}
	for i, n := range after.PerPartition {
		if n != before.PerPartition[i] {
			t.Fatalf("slice loads changed across restore: %v → %v", before.PerPartition, after.PerPartition)
		}
	}
}

// TestResumeRebaselinesAfterRouterStateLoss: a client resuming against
// a router that knows nothing of its cursor (state lost, or re-homed)
// must not filter the fresh stream as replay overlap — the regressed
// ack cursor rebaselines the client, and deliveries flow again.
func TestResumeRebaselinesAfterRouterStateLoss(t *testing.T) {
	sys1 := newTestSystemCfg(t, nil)
	alice, sub1, conn := resumableClient(t, sys1, "alice")
	if err := sys1.publisher.Publish(bg, halQuote(42), []byte("before")); err != nil {
		t.Fatal(err)
	}
	if d := recvSub(t, sub1); string(d.Payload) != "before" {
		t.Fatalf("delivery = %+v", d)
	}
	if alice.LastCursor() == 0 {
		t.Fatal("no cursor observed before the loss")
	}
	_ = conn.Close()
	<-alice.DeliveryDone()

	// A second, independent router stands in for total state loss.
	sys2 := newTestSystemCfg(t, nil)
	pubConn, err := net.Dial("tcp", sys2.pubLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	alice.ConnectPublisher(pubConn, sys2.publisher.PublicKey())
	sub2, err := alice.Subscribe(bg, halSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := net.Dial("tcp", sys2.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Resume(bg, conn2); err != nil {
		t.Fatal(err)
	}
	// The new router stamps from 1 — below alice's old cursor. Without
	// rebaselining, this delivery would be silently discarded forever.
	if err := sys2.publisher.Publish(bg, halQuote(42), []byte("after")); err != nil {
		t.Fatal(err)
	}
	if d := recvSub(t, sub2); string(d.Payload) != "after" {
		t.Fatalf("post-loss delivery = %+v", d)
	}
	// Close alice before the systems' cleanups run: sys2 was created
	// after her, so its teardown (which waits for its publisher serving
	// loops) would otherwise precede hers.
	alice.Close()
}

// recvSub reads one delivery from a Subscription handle with a bound.
func recvSub(t *testing.T, sub *Subscription) Delivery {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	d, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("waiting for delivery: %v", err)
	}
	return d
}
