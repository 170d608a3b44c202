package scbr_test

import (
	"context"
	"net"
	"testing"
	"time"

	"scbr"
)

// TestRouterOptionApplication checks that functional options reach the
// launched enclave and engine.
func TestRouterOptionApplication(t *testing.T) {
	dev, err := scbr.NewDevice([]byte("opts-dev"))
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := scbr.NewQuoter(dev, "opts-platform")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := scbr.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	router, err := scbr.NewRouter(dev, quoter, []byte("opts image"), signer.Public(),
		scbr.WithEPC(8<<20), scbr.WithSwitchless(), scbr.WithPadding(400))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if got := router.Enclave().Config().EPCBytes; got != 8<<20 {
		t.Fatalf("EPCBytes = %d, want %d", got, 8<<20)
	}

	// Default options launch with the paper's EPC.
	router2, err := scbr.NewRouter(dev, quoter, []byte("opts image 2"), signer.Public())
	if err != nil {
		t.Fatal(err)
	}
	defer router2.Close()
	if got := router2.Enclave().Config().EPCBytes; got != uint64(scbr.DefaultEPCBytes) {
		t.Fatalf("default EPCBytes = %d, want %d", got, uint64(scbr.DefaultEPCBytes))
	}
}

// TestEngineOptionApplication checks that padding and ISV options are
// observable on the constructed artefacts.
func TestEngineOptionApplication(t *testing.T) {
	spec, err := scbr.ParseSpec("price < 50")
	if err != nil {
		t.Fatal(err)
	}
	slim, err := scbr.NewPlainEngine()
	if err != nil {
		t.Fatal(err)
	}
	padded, err := scbr.NewPlainEngine(scbr.WithPadding(2048))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*scbr.Engine{slim, padded} {
		if _, err := e.Register(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	if slimB, padB := slim.Stats().Bytes, padded.Stats().Bytes; padB <= slimB {
		t.Fatalf("WithPadding not applied: %d <= %d bytes", padB, slimB)
	}

	dev, err := scbr.NewDevice([]byte("engine-opts"))
	if err != nil {
		t.Fatal(err)
	}
	_, enclave, err := scbr.NewEnclaveEngine(dev, scbr.WithEPC(4<<20), scbr.WithISV(7, 3), scbr.WithDebugEnclave())
	if err != nil {
		t.Fatal(err)
	}
	cfg := enclave.Config()
	if cfg.EPCBytes != 4<<20 || cfg.ISVProdID != 7 || cfg.ISVSVN != 3 || !cfg.Debug {
		t.Fatalf("enclave config = %+v", cfg)
	}
}

// TestFederationOptions federates two routers through the public
// option surface and checks the attested link comes up and is
// reported on the federation snapshot.
func TestFederationOptions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	signer, err := scbr.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := scbr.NewAttestationService()
	image := []byte("fed options image")

	newNode := func(name, platform string, peers ...string) (*scbr.Router, string) {
		t.Helper()
		dev, err := scbr.NewDevice(nil)
		if err != nil {
			t.Fatal(err)
		}
		quoter, err := scbr.NewQuoter(dev, platform)
		if err != nil {
			t.Fatal(err)
		}
		svc.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
		opts := []scbr.Option{
			scbr.WithRouterID(name),
			scbr.WithPeerVerifier(svc),
			scbr.WithFederationTTL(4),
			scbr.WithDrainTimeout(time.Second),
		}
		if len(peers) > 0 {
			opts = append(opts, scbr.WithPeers(peers...))
		}
		router, err := scbr.NewRouter(dev, quoter, image, signer.Public(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(router.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = router.Serve(ctx, ln) }()
		return router, ln.Addr().String()
	}

	a, addrA := newNode("fed-a", "fed-platform-a")
	b, _ := newNode("fed-b", "fed-platform-b", addrA)

	deadline := time.Now().Add(10 * time.Second)
	for a.FederationSnapshot().Peers < 1 || b.FederationSnapshot().Peers < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("peer link never came up: a=%+v b=%+v",
				a.FederationSnapshot(), b.FederationSnapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
