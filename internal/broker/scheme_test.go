package broker

import (
	"errors"
	"net"
	"testing"

	"scbr/internal/attest"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
)

// aspeTestAttrs is the attribute universe the aspe tests fix: the
// quote attributes the helpers' specs and events reference.
var aspeTestAttrs = []string{"symbol", "price", "volume"}

func aspeTestCodec(t *testing.T) scheme.Codec {
	t.Helper()
	codec, err := scheme.NewCodec(scheme.ASPE,
		scheme.WithAttrs(aspeTestAttrs...),
		scheme.WithSeed(41),
		scheme.WithScale("price", 100),
		scheme.WithScale("volume", 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	return codec
}

// newSchemeTestSystem is newTestSystemCfg with a non-default matching
// scheme on both halves of the deployment.
func newSchemeTestSystem(t *testing.T, schemeName string, codec scheme.Codec, mutate func(*RouterConfig)) *testSystem {
	t.Helper()
	dev, err := sgx.NewDevice([]byte("scheme-test-"+schemeName), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := attest.NewQuoter(dev, "scheme-platform-"+schemeName)
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
		EnclaveImage:  []byte("scbr scheme router image v1"),
		EnclaveSigner: signer.Public(),
		Scheme:        schemeName,
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
	sys.publisher, err = NewPublisherWithCodec(ias, router.Identity(), codec)
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

// TestASPEEndToEnd drives the full six-step protocol with the aspe
// scheme on the live data plane, across a partitioned router: the
// publisher encodes ciphertext vectors, the router matches them
// without ever decrypting, and only the matching client's delivery
// arrives.
func TestASPEEndToEnd(t *testing.T) {
	sys := newSchemeTestSystem(t, scheme.ASPE, aspeTestCodec(t), func(cfg *RouterConfig) {
		cfg.Partitions = 3
	})
	if sys.router.Scheme() != scheme.ASPE {
		t.Fatalf("router scheme = %q", sys.router.Scheme())
	}
	for _, p := range sys.router.parts {
		if _, plain := p.slice.(*scheme.PlainSlice); plain {
			t.Fatalf("aspe router's slice %d is a containment engine", p.idx)
		}
	}
	c, deliveries := sys.attach("alice")
	sub, err := c.Subscribe(bg, halSpec(50))
	if err != nil {
		t.Fatalf("subscribe under aspe: %v", err)
	}
	// One matching and one non-matching publication.
	if err := sys.publisher.Publish(bg, halQuote(60), []byte("too expensive")); err != nil {
		t.Fatal(err)
	}
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("cheap HAL")); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, deliveries)
	if d.Err != nil {
		t.Fatalf("delivery error: %v", d.Err)
	}
	if string(d.Payload) != "cheap HAL" {
		t.Fatalf("payload = %q (the non-matching publication leaked?)", d.Payload)
	}
	if len(d.SubIDs) != 1 || d.SubIDs[0] != sub.ID() {
		t.Fatalf("delivery names subscriptions %v, want [%d]", d.SubIDs, sub.ID())
	}
	st := sys.router.DataPlaneStats()
	if st.Subscriptions != 1 || st.Partitions != 3 {
		t.Fatalf("data plane stats = %+v", st)
	}
}

// TestASPEUnsubscribeStopsDeliveries exercises removal through the
// scheme store.
func TestASPEUnsubscribeStopsDeliveries(t *testing.T) {
	sys := newSchemeTestSystem(t, scheme.ASPE, aspeTestCodec(t), nil)
	c, deliveries := sys.attach("bob")
	sub, err := c.Subscribe(bg, halSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.publisher.Publish(bg, halQuote(42), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if d := recvDelivery(t, deliveries); string(d.Payload) != "one" {
		t.Fatalf("payload = %q", d.Payload)
	}
	if err := c.Unsubscribe(bg, sub.ID()); err != nil {
		t.Fatal(err)
	}
	if st := sys.router.DataPlaneStats(); st.Subscriptions != 0 {
		t.Fatalf("store still holds %d subscriptions after unsubscribe", st.Subscriptions)
	}
}

// TestSchemeMismatchProvision asserts the cross-scheme handshake
// rejection in both directions: the publisher's ConnectRouter fails
// with the typed sentinel, across the wire.
func TestSchemeMismatchProvision(t *testing.T) {
	t.Run("plain-publisher-aspe-router", func(t *testing.T) {
		sys := newSchemeTestSystem(t, scheme.ASPE, aspeTestCodec(t), nil)
		plainPub, err := NewPublisher(attest.NewService(), sys.router.Identity())
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		err = plainPub.ConnectRouter(bg, conn)
		if !errors.Is(err, ErrSchemeMismatch) {
			t.Fatalf("plain publisher vs aspe router: err = %v, want ErrSchemeMismatch", err)
		}
	})
	t.Run("aspe-publisher-plain-router", func(t *testing.T) {
		sys := newTestSystem(t)
		aspePub, err := NewPublisherWithCodec(attest.NewService(), sys.router.Identity(), aspeTestCodec(t))
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		err = aspePub.ConnectRouter(bg, conn)
		if !errors.Is(err, ErrSchemeMismatch) {
			t.Fatalf("aspe publisher vs plain router: err = %v, want ErrSchemeMismatch", err)
		}
	})
}

// TestSchemeMismatchFrames asserts the per-frame scheme tag checks:
// register and scheme-tagged listen frames from the wrong scheme are
// rejected with the sentinel, while untagged listens (a pre-scheme or
// not-yet-subscribed client) pass.
func TestSchemeMismatchFrames(t *testing.T) {
	sys := newSchemeTestSystem(t, scheme.ASPE, aspeTestCodec(t), nil)
	exchange := func(m *Message) error {
		conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := Send(conn, m); err != nil {
			t.Fatal(err)
		}
		reply, err := Recv(conn)
		if err != nil {
			t.Fatal(err)
		}
		return errOf(reply)
	}
	if err := exchange(&Message{Type: TypeRegisterBatch, ClientID: "mallory", Scheme: scheme.Plain, Items: []BatchItem{{Blob: []byte("x")}}, Tag: []byte("y")}); !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("plain-tagged register on aspe router: err = %v, want ErrSchemeMismatch", err)
	}
	// The empty tag means the default scheme — also a mismatch here.
	if err := exchange(&Message{Type: TypeRegisterBatch, ClientID: "mallory", Items: []BatchItem{{Blob: []byte("x")}}, Tag: []byte("y")}); !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("untagged register on aspe router: err = %v, want ErrSchemeMismatch", err)
	}
	if err := exchange(&Message{Type: TypeListen, ClientID: "mallory", Scheme: scheme.Plain}); !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("plain-tagged listen on aspe router: err = %v, want ErrSchemeMismatch", err)
	}
	// An untagged listen binds fine: deliveries are scheme-neutral.
	conn, err := net.Dial("tcp", sys.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Send(conn, &Message{Type: TypeListen, ClientID: "carol"}); err != nil {
		t.Fatal(err)
	}
	reply, err := Recv(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := expect(reply, TypeListenOK); err != nil {
		t.Fatalf("untagged listen on aspe router rejected: %v", err)
	}
}

// TestASPEFederationRejected asserts the capability gate: a scheme
// without federation-digest support cannot join an overlay.
func TestASPEFederationRejected(t *testing.T) {
	dev, err := sgx.NewDevice([]byte("aspe-fed"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := attest.NewQuoter(dev, "aspe-fed-platform")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewRouter(dev, quoter, RouterConfig{
		EnclaveImage:  []byte("img"),
		EnclaveSigner: signer.Public(),
		Scheme:        scheme.ASPE,
		RouterID:      "r1",
		PeerVerifier:  attest.NewService(),
	})
	if err == nil {
		t.Fatal("aspe router with federation config constructed")
	}
}

// TestASPESealRestore seals an aspe router's state (scheme ID and
// public parameters included) and restores it into a fresh aspe
// router: the ciphertext registrations replay into reconfigured
// stores and keep their IDs, end to end through a re-provisioned
// publisher.
func TestASPESealRestore(t *testing.T) {
	dev, err := sgx.NewDevice([]byte("aspe-persist"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := attest.NewQuoter(dev, "aspe-persist-platform")
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
		EnclaveImage:  []byte("aspe persistent router image"),
		EnclaveSigner: signer.Public(),
		Scheme:        scheme.ASPE,
		Partitions:    2,
	}
	r1, err := NewRouter(dev, quoter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisherWithCodec(ias, r1.Identity(), aspeTestCodec(t))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(r *Router) net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = r.Serve(bg, ln) }()
		return ln
	}
	ln1 := serve(r1)
	conn1, err := net.Dial("tcp", ln1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.ConnectRouter(bg, conn1); err != nil {
		t.Fatal(err)
	}
	// Register through the protocol: a client subscribing via the
	// publisher served over a pipe.
	c, err := NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	clientSide, pubSide := net.Pipe()
	go pub.ServeClient(bg, pubSide)
	c.ConnectPublisher(clientSide, pub.PublicKey())
	sub, err := c.Subscribe(bg, halSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	_ = ln1.Close()

	r2, err := NewRouter(dev, quoter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.RestoreState(blob); err != nil {
		t.Fatalf("restoring aspe state: %v", err)
	}
	if st := r2.DataPlaneStats(); st.Subscriptions != 1 {
		t.Fatalf("restored %d subscriptions, want 1", st.Subscriptions)
	}
	// The restored stores must match live traffic: attach the client's
	// delivery channel and publish through a re-provisioned connection.
	ln2 := serve(r2)
	t.Cleanup(func() { r2.Close(); _ = ln2.Close() })
	conn2, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.ConnectRouter(bg, conn2); err != nil {
		t.Fatalf("re-provisioning restored router: %v", err)
	}
	routerConn, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(bg, routerConn); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := pub.Publish(bg, halQuote(42), []byte("after restart")); err != nil {
		t.Fatal(err)
	}
	d, err := sub.Next(bg)
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "after restart" {
		t.Fatalf("payload = %q", d.Payload)
	}
}

// TestRestoreSchemeMismatch is the fail-fast satellite: a snapshot
// sealed by an aspe router must not replay into a plain router (the
// stored encodings would be misinterpreted), and vice versa.
func TestRestoreSchemeMismatch(t *testing.T) {
	f := newRestartFixture(t)
	f.cfg.Scheme = scheme.ASPE
	r1 := f.newRouter()
	ias := attest.NewService()
	ias.RegisterPlatform(f.quoter.PlatformID(), f.quoter.AttestationKey())
	pub, err := NewPublisherWithCodec(ias, r1.Identity(), aspeTestCodec(t))
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); r1.handleConn(server) }()
	t.Cleanup(func() { _ = client.Close(); _ = server.Close(); <-done })
	if err := pub.ConnectRouter(bg, client); err != nil {
		t.Fatal(err)
	}
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	f.cfg.Scheme = scheme.Plain
	r2 := f.newRouter()
	err = r2.RestoreState(blob)
	if !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("restoring aspe state into plain router: err = %v, want ErrSchemeMismatch", err)
	}
	// The fail-fast must leave the router unprovisioned and empty.
	if sk := r2.keys(); sk != nil {
		t.Fatal("failed restore installed secrets anyway")
	}
	if st := r2.DataPlaneStats(); st.Subscriptions != 0 {
		t.Fatalf("failed restore left %d subscriptions", st.Subscriptions)
	}
}
