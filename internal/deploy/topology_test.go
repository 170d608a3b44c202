package deploy

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"scbr/internal/broker"
	"scbr/internal/federation"
	"scbr/internal/pubsub"
)

const fedWait = 10 * time.Second

func halSpec(t *testing.T) pubsub.SubscriptionSpec {
	t.Helper()
	spec, err := pubsub.ParseSpec(`symbol = "HAL"`)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func halHeader(symbol string) pubsub.EventSpec {
	return pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "symbol", Value: pubsub.Str(symbol)},
	}}
}

// expectDelivery waits for exactly one delivery with the given payload
// and then asserts the stream stays quiet.
func expectDelivery(t *testing.T, sub *broker.Subscription, payload string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), fedWait)
	defer cancel()
	d, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("waiting for delivery: %v", err)
	}
	if d.Err != nil {
		t.Fatalf("delivery error: %v", d.Err)
	}
	if string(d.Payload) != payload {
		t.Fatalf("delivered %q, want %q", d.Payload, payload)
	}
	expectQuiet(t, sub)
}

// expectQuiet asserts no further delivery arrives within a settle
// window — the exactly-once half of the federation guarantees.
func expectQuiet(t *testing.T, sub *broker.Subscription) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if d, err := sub.Next(ctx); err == nil {
		t.Fatalf("unexpected extra delivery %q", d.Payload)
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiting for quiet: %v", err)
	}
}

// TestFederationChainDelivery is the acceptance scenario: in a
// 3-router chain A—B—C, a publication entering A is delivered exactly
// once to a matching subscriber on C, and a publication no router
// subscribes to never leaves A.
func TestFederationChainDelivery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	topo, err := NewTopology(ctx, TopologySpec{Routers: 3, Links: [][2]int{{0, 1}, {1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()

	pub, err := topo.NewPublisher(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	carol, err := broker.NewClient("carol")
	if err != nil {
		t.Fatal(err)
	}
	defer carol.Close()
	if err := topo.ConnectClient(ctx, pub, carol, 2); err != nil {
		t.Fatal(err)
	}
	sub, err := carol.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}

	// Carol's interest must reach A through B before A can route
	// toward it.
	if err := topo.WaitRemoteEntries(1, 1, fedWait); err != nil {
		t.Fatal(err)
	}
	if err := topo.WaitRemoteEntries(0, 1, fedWait); err != nil {
		t.Fatal(err)
	}

	if err := pub.Publish(ctx, halHeader("HAL"), []byte("across the chain")); err != nil {
		t.Fatal(err)
	}
	expectDelivery(t, sub, "across the chain")

	// The publication crossed exactly the two hops of the chain.
	if err := topo.WaitFederation(2, fedWait, func(c federation.Counters) bool {
		return c.ReceivedForwards == 1
	}); err != nil {
		t.Fatal(err)
	}
	if got := topo.Routers[0].FederationSnapshot().Forwarded; got != 1 {
		t.Fatalf("router A forwarded %d publications, want 1", got)
	}

	// A publication nobody subscribes to is withheld at A: B's digest
	// has no matching subscription, so the frame never leaves.
	before := topo.Routers[0].FederationSnapshot()
	if err := pub.Publish(ctx, halHeader("IBM"), []byte("noise")); err != nil {
		t.Fatal(err)
	}
	if err := topo.WaitFederation(0, fedWait, func(c federation.Counters) bool {
		return c.Withheld > before.Withheld
	}); err != nil {
		t.Fatal(err)
	}
	if got := topo.Routers[0].FederationSnapshot().Forwarded; got != before.Forwarded {
		t.Fatalf("router A forwarded the unmatched publication (%d → %d)", before.Forwarded, got)
	}
	if got := topo.Routers[1].FederationSnapshot().ReceivedForwards; got != 1 {
		t.Fatalf("router B received %d forwards, want only the matching one", got)
	}
}

// TestFederationCycleExactlyOnce proves duplicate suppression: on a
// cyclic triangle every publication has two paths to the subscriber's
// router, and exactly one copy is delivered.
func TestFederationCycleExactlyOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	topo, err := NewTopology(ctx, TopologySpec{Routers: 3, Links: [][2]int{{0, 1}, {1, 2}, {2, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()

	pub, err := topo.NewPublisher(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	carol, err := broker.NewClient("carol")
	if err != nil {
		t.Fatal(err)
	}
	defer carol.Close()
	if err := topo.ConnectClient(ctx, pub, carol, 2); err != nil {
		t.Fatal(err)
	}
	sub, err := carol.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}

	// Wait until A knows the interest on both its links (directly from
	// C and relayed through B), so the publication actually takes two
	// paths.
	if err := topo.WaitRemoteEntries(0, 2, fedWait); err != nil {
		t.Fatal(err)
	}

	const n = 5
	for i := 0; i < n; i++ {
		if err := pub.Publish(ctx, halHeader("HAL"), []byte(fmt.Sprintf("pub-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]int)
	for i := 0; i < n; i++ {
		ctxN, cancelN := context.WithTimeout(ctx, fedWait)
		d, err := sub.Next(ctxN)
		cancelN()
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		got[string(d.Payload)]++
	}
	for payload, count := range got {
		if count != 1 {
			t.Fatalf("payload %q delivered %d times", payload, count)
		}
	}
	expectQuiet(t, sub)

	// The second copy of each publication was suppressed somewhere on
	// the cycle, not delivered.
	if err := topo.WaitFederation(2, fedWait, func(c federation.Counters) bool {
		return c.SuppressedDuplicates >= 1
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFederationDigestStaleness proves the freshness half: once the
// only subscriber on B unsubscribes, the removal propagates to A
// within one digest round and A stops forwarding.
func TestFederationDigestStaleness(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	topo, err := NewTopology(ctx, TopologySpec{Routers: 2, Links: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()

	pub, err := topo.NewPublisher(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := broker.NewClient("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()
	if err := topo.ConnectClient(ctx, pub, bob, 1); err != nil {
		t.Fatal(err)
	}
	sub, err := bob.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.WaitRemoteEntries(0, 1, fedWait); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(ctx, halHeader("HAL"), []byte("while subscribed")); err != nil {
		t.Fatal(err)
	}
	expectDelivery(t, sub, "while subscribed")

	if err := sub.Unsubscribe(ctx); err != nil {
		t.Fatal(err)
	}
	// The removal reaches A as one incremental digest update.
	if err := topo.WaitFederation(0, fedWait, func(c federation.Counters) bool {
		return c.RemoteEntries == 0
	}); err != nil {
		t.Fatal(err)
	}
	before := topo.Routers[0].FederationSnapshot()
	if err := pub.Publish(ctx, halHeader("HAL"), []byte("after unsubscribe")); err != nil {
		t.Fatal(err)
	}
	if err := topo.WaitFederation(0, fedWait, func(c federation.Counters) bool {
		return c.Withheld > before.Withheld
	}); err != nil {
		t.Fatal(err)
	}
	if got := topo.Routers[0].FederationSnapshot().Forwarded; got != before.Forwarded {
		t.Fatalf("router A kept forwarding after the unsubscribe (%d → %d)", before.Forwarded, got)
	}
}

// TestFederationPartitionedSwitchlessRouters exercises the overlay
// with the sharded, switchless data plane underneath: forwarded
// deliveries flow through the partitioned pipeline like local ones.
func TestFederationPartitionedSwitchlessRouters(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	topo, err := NewTopology(ctx, TopologySpec{
		Routers: 2,
		Links:   [][2]int{{0, 1}},
		Mutate: func(i int, cfg *broker.RouterConfig) {
			cfg.Partitions = 2
			cfg.Switchless = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()

	pub, err := topo.NewPublisher(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := broker.NewClient("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()
	if err := topo.ConnectClient(ctx, pub, bob, 1); err != nil {
		t.Fatal(err)
	}
	sub, err := bob.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.WaitRemoteEntries(0, 1, fedWait); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(ctx, halHeader("HAL"), []byte("switchless hop")); err != nil {
		t.Fatal(err)
	}
	expectDelivery(t, sub, "switchless hop")
}

// TestFederationBatchCrossHop audits the batch-expansion path on the
// forwarded side: a PublishBatch entering router A is expanded into
// per-item publications *before* the federation layer stamps each
// item's origin/seq/TTL envelope, so every matching item — and only
// the matching items — must cross the attested hop, arrive in batch
// order, exactly once, and ride the subscriber's local delivery
// cursors like any native publication.
func TestFederationBatchCrossHop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	topo, err := NewTopology(ctx, TopologySpec{Routers: 2, Links: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()

	pub, err := topo.NewPublisher(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	carol, err := broker.NewClient("carol")
	if err != nil {
		t.Fatal(err)
	}
	defer carol.Close()
	if err := topo.ConnectClient(ctx, pub, carol, 1); err != nil {
		t.Fatal(err)
	}
	sub, err := carol.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.WaitRemoteEntries(0, 1, fedWait); err != nil {
		t.Fatal(err)
	}

	// Two matching items bracket a non-matching one: order and
	// selectivity must both survive expansion + forwarding.
	batch := []broker.Event{
		{Header: halHeader("HAL"), Payload: []byte("batch-0")},
		{Header: halHeader("IBM"), Payload: []byte("withheld")},
		{Header: halHeader("HAL"), Payload: []byte("batch-2")},
	}
	if err := pub.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"batch-0", "batch-2"} {
		dctx, dcancel := context.WithTimeout(ctx, fedWait)
		d, err := sub.Next(dctx)
		dcancel()
		if err != nil {
			t.Fatalf("waiting for %q: %v", want, err)
		}
		if d.Err != nil || string(d.Payload) != want {
			t.Fatalf("delivery = %+v, want %q", d, want)
		}
	}
	expectQuiet(t, sub)

	// Forwarded deliveries ride the subscriber's local cursors: one per
	// matching batch item.
	if got := carol.LastCursor(); got != 2 {
		t.Fatalf("carol's delivery cursor = %d, want 2", got)
	}
	// The non-matching item was withheld at A per-item, not forwarded
	// as part of the batch envelope.
	snapA := topo.Routers[0].FederationSnapshot()
	if snapA.Forwarded != 2 || snapA.Withheld != 1 {
		t.Fatalf("router A forwarded %d / withheld %d, want 2 / 1", snapA.Forwarded, snapA.Withheld)
	}
	if got := topo.Routers[1].FederationSnapshot().ReceivedForwards; got != 2 {
		t.Fatalf("router B received %d forwards, want 2", got)
	}
}

// TestFederationRepartitionDelivery proves the elastic data plane
// composes with the overlay: resizing both routers of a 2-router link
// — the subscriber's home while its interest is already exported, the
// publisher's home while forwarding — disturbs neither the digest
// handoff nor cross-hop delivery. Digest state is router-level (folded
// on register/remove), so shard migration between a router's own
// slices must leave the overlay's view of it untouched.
func TestFederationRepartitionDelivery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	topo, err := NewTopology(ctx, TopologySpec{
		Routers: 2,
		Links:   [][2]int{{0, 1}},
		Mutate:  func(i int, cfg *broker.RouterConfig) { cfg.Partitions = 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()

	pub, err := topo.NewPublisher(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	carol, err := broker.NewClient("carol")
	if err != nil {
		t.Fatal(err)
	}
	defer carol.Close()
	if err := topo.ConnectClient(ctx, pub, carol, 1); err != nil {
		t.Fatal(err)
	}
	sub, err := carol.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.WaitRemoteEntries(0, 1, fedWait); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(ctx, halHeader("HAL"), []byte("before resize")); err != nil {
		t.Fatal(err)
	}
	expectDelivery(t, sub, "before resize")

	// Resize the subscriber's home: carol's subscription migrates
	// between enclave slices while her interest stays exported.
	if _, err := topo.Routers[1].Repartition(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(ctx, halHeader("HAL"), []byte("after remote resize")); err != nil {
		t.Fatal(err)
	}
	expectDelivery(t, sub, "after remote resize")

	// Resize the forwarding router too, then shrink the subscriber's
	// home back down — the full grow/shrink cycle across the overlay.
	if _, err := topo.Routers[0].Repartition(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Routers[1].Repartition(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(ctx, halHeader("HAL"), []byte("after both resized")); err != nil {
		t.Fatal(err)
	}
	expectDelivery(t, sub, "after both resized")

	// The digest state never wavered: no withheld matching frames, and
	// the remote entry is still the one carol registered.
	if got := topo.Routers[0].FederationSnapshot().RemoteEntries; got != 1 {
		t.Fatalf("router 0 sees %d remote entries after the resizes, want 1", got)
	}
}

// TestFederationOnlyWithLinks: whether a topology federates is decided
// by its links alone. A one-router sgx-plain topology — a scheme with
// federation digests — keeps no digest for its registrations and
// refuses a peer hello, while two linked routers still attach to each
// other.
func TestFederationOnlyWithLinks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	solo, err := NewTopology(ctx, TopologySpec{Routers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	pub, err := solo.NewPublisher(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alice", "bob"} {
		c, err := broker.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := solo.ConnectClient(ctx, pub, c, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe(ctx, halSpec(t)); err != nil {
			t.Fatal(err)
		}
	}
	if got := solo.Routers[0].DataPlaneStats().Subscriptions; got != 2 {
		t.Fatalf("router holds %d subscriptions, want 2", got)
	}
	if got := solo.Routers[0].FederationSnapshot(); got != (federation.Counters{}) {
		t.Fatalf("a router without links keeps overlay state: %+v", got)
	}
	conn, err := solo.DialRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := broker.Send(conn, &broker.Message{Type: broker.TypePeerHello, Blob: []byte("{}")}); err != nil {
		t.Fatal(err)
	}
	reply, err := broker.Recv(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != broker.TypeError || !strings.Contains(reply.Err, "federation disabled") {
		t.Fatalf("peer hello to a router without links: reply %+v, want the federation-disabled refusal", reply)
	}

	pair, err := NewTopology(ctx, TopologySpec{Routers: 2, Links: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	for i := range pair.Routers {
		if err := pair.WaitFederation(i, fedWait, func(c federation.Counters) bool { return c.Peers == 1 }); err != nil {
			t.Fatal(err)
		}
	}
}
