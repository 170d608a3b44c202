package broker

import (
	"net"
	"testing"

	"scbr/internal/pubsub"
)

func newSwitchlessSystem(t *testing.T) *testSystem {
	t.Helper()
	return newTestSystemCfg(t, func(cfg *RouterConfig) { cfg.Switchless = true })
}

func TestSwitchlessEndToEnd(t *testing.T) {
	sys := newSwitchlessSystem(t)
	alice, aliceRx := sys.attach("alice")
	_, bobRx := sys.attach("bob")

	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("HAL @ 42")); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, aliceRx)
	if d.Err != nil || string(d.Payload) != "HAL @ 42" {
		t.Fatalf("delivery = %+v", d)
	}
	expectNoDelivery(t, bobRx)
	if err := sys.publisher.Publish(bg, halQuote(60), []byte("HAL @ 60")); err != nil {
		t.Fatal(err)
	}
	expectNoDelivery(t, aliceRx)
}

func TestSwitchlessPublicationsUseNoPerMessageTransitions(t *testing.T) {
	sys := newSwitchlessSystem(t)
	alice, aliceRx := sys.attach("alice")
	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	// Warm the path so the worker's one-time entry transition has been
	// charged before the measured window.
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("warm")); err != nil {
		t.Fatal(err)
	}
	recvDelivery(t, aliceRx)

	before := sys.router.MeterSnapshot().Transitions
	const n = 50
	for i := 0; i < n; i++ {
		if err := sys.publisher.Publish(bg, halQuote(42), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if d := recvDelivery(t, aliceRx); d.Err != nil {
			t.Fatal(d.Err)
		}
	}
	if got := sys.router.MeterSnapshot().Transitions - before; got != 0 {
		t.Fatalf("switchless publications charged %d transitions, want 0", got)
	}
}

func TestSwitchlessTamperedPublicationDropped(t *testing.T) {
	sys := newSwitchlessSystem(t)
	alice, aliceRx := sys.attach("alice")
	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	// A plaintext (unauthenticated) header fails MAC verification
	// inside the enclave worker and is dropped without wedging the
	// pipeline.
	raw, err := pubsub.EncodeEventSpec(halQuote(42))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Send(conn, &Message{Type: TypePublish, Blob: raw, Payload: []byte("forged")}); err != nil {
		t.Fatal(err)
	}
	expectNoDelivery(t, aliceRx)
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("real")); err != nil {
		t.Fatal(err)
	}
	if d := recvDelivery(t, aliceRx); d.Err != nil || string(d.Payload) != "real" {
		t.Fatalf("delivery = %+v", d)
	}
}

// TestSwitchlessSealRestore: sealed-state restart works identically
// when both routers run the switchless transition policy (the
// pipeline is transient state and is rebuilt on restart).
func TestSwitchlessSealRestore(t *testing.T) {
	f := newRestartFixture(t)
	f.cfg.Switchless = true
	r1 := f.newRouter()
	defer r1.Close()
	_, ids := f.populate(r1, 5)
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	r2 := f.newRouter()
	defer r2.Close()
	if err := r2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := r2.DataPlaneStats().Subscriptions; got != len(ids) {
		t.Fatalf("restored %d subscriptions, want %d", got, len(ids))
	}
}

func TestSwitchlessUnsubscribeStopsDeliveries(t *testing.T) {
	sys := newSwitchlessSystem(t)
	alice, aliceRx := sys.attach("alice")
	sub, err := alice.Subscribe(bg, halSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if d := recvDelivery(t, aliceRx); string(d.Payload) != "one" {
		t.Fatalf("delivery = %+v", d)
	}
	if err := alice.Unsubscribe(bg, sub.ID()); err != nil {
		t.Fatal(err)
	}
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("two")); err != nil {
		t.Fatal(err)
	}
	expectNoDelivery(t, aliceRx)
}
