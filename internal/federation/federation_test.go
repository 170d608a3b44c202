package federation

import (
	"errors"
	"testing"
	"time"

	"scbr/internal/attest"
	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
)

func mustSpec(t *testing.T, s string) pubsub.SubscriptionSpec {
	t.Helper()
	spec, err := pubsub.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func mustEvent(t *testing.T, schema *pubsub.Schema, attrs map[string]pubsub.Value) *pubsub.Event {
	t.Helper()
	ev, err := pubsub.NewEvent(schema, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestCanonicalizeCollapsesEquivalentSpecs: predicate order and
// redundant range splits must not change the canonical form, or
// refcounting and cross-router set diffs would fracture.
func TestCanonicalizeCollapsesEquivalentSpecs(t *testing.T) {
	schema := pubsub.NewSchema()
	a := mustSpec(t, `symbol = "HAL", price < 50`)
	b := pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "price", Op: pubsub.OpLt, Value: pubsub.Float(50)},
		{Attr: "symbol", Op: pubsub.OpEq, Value: pubsub.Str("HAL")},
	}}
	ka, _, err := canonicalize(schema, a)
	if err != nil {
		t.Fatal(err)
	}
	kb, _, err := canonicalize(schema, b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("equivalent specs canonicalised differently:\n%q\n%q", ka, kb)
	}
	c := mustSpec(t, `symbol = "IBM", price < 50`)
	kc, _, err := canonicalize(schema, c)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kc {
		t.Fatal("different specs share a canonical form")
	}
}

// TestMaximalCompaction: the announced digest keeps only ⊒-maximal
// subscriptions — a covered subscription adds no forwarding
// information.
func TestMaximalCompaction(t *testing.T) {
	schema := pubsub.NewSchema()
	pool := make(map[string]*entry)
	add := func(s string) string {
		k, e, err := canonicalize(schema, mustSpec(t, s))
		if err != nil {
			t.Fatal(err)
		}
		pool[k] = e
		return k
	}
	wide := add(`price < 100`)
	add(`price < 50`)                 // covered by wide
	add(`symbol = "HAL", price < 80`) // covered by wide
	other := add(`symbol = "IBM"`)    // incomparable

	out := maximal(pool)
	if len(out) != 2 {
		t.Fatalf("maximal kept %d entries, want 2", len(out))
	}
	if _, ok := out[wide]; !ok {
		t.Fatal("maximal dropped the covering subscription")
	}
	if _, ok := out[other]; !ok {
		t.Fatal("maximal dropped an incomparable subscription")
	}

	// Equal entries: exactly one survives.
	dup := make(map[string]*entry)
	k1, e1, _ := canonicalize(schema, mustSpec(t, `price < 10`))
	dup[k1] = e1
	k2, e2, _ := canonicalize(schema, pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{
		{Attr: "price", Op: pubsub.OpLt, Value: pubsub.Float(10)},
	}})
	dup[k2] = e2
	if len(maximal(dup)) != 1 {
		t.Fatalf("equal entries should compact to one, got %d", len(maximal(dup)))
	}
}

func TestDedupWindow(t *testing.T) {
	d := newDedup()
	if fresh, _ := d.observe("a", 1, 5); !fresh {
		t.Fatal("first sighting reported as duplicate")
	}
	if fresh, improved := d.observe("a", 1, 5); fresh || improved {
		t.Fatal("equal-budget replay reported as fresh or improved")
	}
	// A duplicate with more hop budget is improved (re-forward, never
	// re-deliver); a later copy with less is fully suppressed.
	if fresh, improved := d.observe("a", 1, 7); fresh || !improved {
		t.Fatal("higher-budget duplicate not reported as improved")
	}
	if fresh, improved := d.observe("a", 1, 6); fresh || improved {
		t.Fatal("lower-budget duplicate accepted after a better copy")
	}
	if fresh, _ := d.observe("b", 1, 5); !fresh {
		t.Fatal("origins must be independent")
	}
	if fresh, _ := d.observe("a", 2, 5); !fresh {
		t.Fatal("per-origin sequence tracking broken")
	}
	// Far below the window: treated as seen and spent, whatever the
	// budget.
	if fresh, _ := d.observe("a", dedupWindow+100, 5); !fresh {
		t.Fatal("fresh high sequence rejected")
	}
	if fresh, improved := d.observe("a", 50, 99); fresh || improved {
		t.Fatal("sequence far below the window accepted")
	}
}

// handshakeRig builds two simulated platforms sharing one measured
// image and a verification service that vouches for both.
type handshakeRig struct {
	svc         *attest.Service
	ids         []attest.Identity
	encA        *sgx.Enclave
	encB        *sgx.Enclave
	quoterA     *attest.Quoter
	quoterB     *attest.Quoter
	otherEnc    *sgx.Enclave // same signer, different image (wrong identity)
	otherQuoter *attest.Quoter
}

func newHandshakeRig(t *testing.T) *handshakeRig {
	t.Helper()
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	image := []byte("federation handshake image")
	svc := attest.NewService()
	launch := func(seed, platform string, img []byte) (*sgx.Enclave, *attest.Quoter) {
		dev, err := sgx.NewDevice([]byte(seed), simmem.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		q, err := attest.NewQuoter(dev, platform)
		if err != nil {
			t.Fatal(err)
		}
		svc.RegisterPlatform(q.PlatformID(), q.AttestationKey())
		e, err := dev.Launch(img, signer.Public(), sgx.EnclaveConfig{EPCBytes: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Terminate)
		return e, q
	}
	encA, quoterA := launch("dev-a", "platform-a", image)
	encB, quoterB := launch("dev-b", "platform-b", image)
	otherEnc, otherQuoter := launch("dev-c", "platform-c", []byte("some other image"))
	id := attest.Identity{MRENCLAVE: encA.MRENCLAVE(), MRSIGNER: encA.MRSIGNER()}
	return &handshakeRig{
		svc: svc, ids: []attest.Identity{id},
		encA: encA, encB: encB, quoterA: quoterA, quoterB: quoterB,
		otherEnc: otherEnc, otherQuoter: otherQuoter,
	}
}

func TestHandshakeDerivesSharedKey(t *testing.T) {
	rig := newHandshakeRig(t)
	hello, ephemeral, err := NewHello("router-a", rig.encA, rig.quoterA)
	if err != nil {
		t.Fatal(err)
	}
	welcome, keyB, err := AcceptHello(hello, rig.svc, rig.ids, "router-b", rig.encB, rig.quoterB)
	if err != nil {
		t.Fatal(err)
	}
	keyA, err := CompleteHandshake(welcome, rig.svc, rig.ids, rig.encA, ephemeral)
	if err != nil {
		t.Fatal(err)
	}
	if !keyA.Equal(keyB) {
		t.Fatal("handshake sides derived different link keys")
	}
}

func TestHandshakeRejectsWrongIdentity(t *testing.T) {
	rig := newHandshakeRig(t)
	// A rogue enclave (different measured image, genuine platform)
	// dials: the acceptor must refuse to mint a link.
	hello, _, err := NewHello("rogue", rig.otherEnc, rig.otherQuoter)
	if err == nil {
		_, _, err = AcceptHello(hello, rig.svc, rig.ids, "router-b", rig.encB, rig.quoterB)
	}
	if err == nil || !errors.Is(err, ErrPeerRejected) {
		t.Fatalf("rogue hello accepted (err=%v)", err)
	}
}

func TestHandshakeRejectsSubstitutedSecret(t *testing.T) {
	rig := newHandshakeRig(t)
	hello, ephemeral, err := NewHello("router-a", rig.encA, rig.quoterA)
	if err != nil {
		t.Fatal(err)
	}
	welcome, _, err := AcceptHello(hello, rig.svc, rig.ids, "router-b", rig.encB, rig.quoterB)
	if err != nil {
		t.Fatal(err)
	}
	// A man in the middle swaps the encrypted secret for one it knows:
	// the welcome quote's binding must catch it.
	welcome.Secret = append([]byte(nil), welcome.Secret...)
	welcome.Secret[0] ^= 0xff
	if _, err := CompleteHandshake(welcome, rig.svc, rig.ids, rig.encA, ephemeral); !errors.Is(err, ErrPeerRejected) {
		t.Fatalf("substituted secret accepted (err=%v)", err)
	}
}

// overlayPair wires two overlays together with in-memory transports
// sharing one link key, as the broker does over TCP.
type overlayPair struct {
	a, b   *Overlay
	pa, pb *Peer // a's handle for b, b's handle for a
}

func newOverlayPair(t *testing.T) *overlayPair {
	t.Helper()
	key, err := scrypto.NewSymmetricKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	pair := &overlayPair{}
	// Each overlay's emit hands the frame to the other side's
	// HandleDigest, mimicking the broker's link writer/reader. The
	// ready gate orders the peer-handle writes before the announcer
	// goroutines read them.
	ready := make(chan struct{})
	pair.a = NewOverlay("A", 0, pubsub.NewSchema(), func(p *Peer, frame []byte) {
		<-ready
		if err := pair.b.HandleDigest(pair.pb, frame); err != nil {
			t.Errorf("B applying digest: %v", err)
		}
	})
	pair.b = NewOverlay("B", 0, pubsub.NewSchema(), func(p *Peer, frame []byte) {
		<-ready
		if err := pair.a.HandleDigest(pair.pa, frame); err != nil {
			t.Errorf("A applying digest: %v", err)
		}
	})
	t.Cleanup(pair.a.Close)
	t.Cleanup(pair.b.Close)
	if pair.pa, err = pair.a.AttachPeer("B", key, nil); err != nil {
		t.Fatal(err)
	}
	if pair.pb, err = pair.b.AttachPeer("A", key, nil); err != nil {
		t.Fatal(err)
	}
	close(ready)
	return pair
}

func waitCounters(t *testing.T, o *Overlay, cond func(Counters) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(o.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatalf("overlay never converged: %+v", o.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverlayDigestDrivesForwarding: interests announced by B make A
// forward matching publications (and only those) toward B, and a
// removal stops the forwarding.
func TestOverlayDigestDrivesForwarding(t *testing.T) {
	pair := newOverlayPair(t)
	if err := pair.b.AddLocal(1, mustSpec(t, `symbol = "HAL"`)); err != nil {
		t.Fatal(err)
	}
	waitCounters(t, pair.a, func(c Counters) bool { return c.RemoteEntries == 1 })

	evMatch := mustEvent(t, pair.a.schema, map[string]pubsub.Value{"symbol": pubsub.Str("HAL")})
	outs, err := pair.a.ForwardLocal([]byte("hdr"), []byte("pay"), 7, evMatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Peer != pair.pa {
		t.Fatalf("matching publication produced %d forwards", len(outs))
	}

	evMiss := mustEvent(t, pair.a.schema, map[string]pubsub.Value{"symbol": pubsub.Str("IBM")})
	outs, err = pair.a.ForwardLocal([]byte("hdr"), []byte("pay"), 7, evMiss)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("non-matching publication forwarded %d times", len(outs))
	}

	pair.b.RemoveLocal(1)
	waitCounters(t, pair.a, func(c Counters) bool { return c.RemoteEntries == 0 })
	outs, err = pair.a.ForwardLocal([]byte("hdr"), []byte("pay"), 7, evMatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("forwarding survived the unsubscribe (%d forwards)", len(outs))
	}
}

// TestOverlayForwardDedupAndTTL: a forwarded frame is accepted once,
// suppressed on replay, and a TTL-exhausted frame is not re-forwarded.
func TestOverlayForwardDedupAndTTL(t *testing.T) {
	pair := newOverlayPair(t)
	// B subscribes so A's frames carry toward it; C is simulated by
	// feeding A's sealed frames straight back into B.
	if err := pair.b.AddLocal(1, mustSpec(t, `symbol = "HAL"`)); err != nil {
		t.Fatal(err)
	}
	waitCounters(t, pair.a, func(c Counters) bool { return c.RemoteEntries == 1 })

	ev := mustEvent(t, pair.a.schema, map[string]pubsub.Value{"symbol": pubsub.Str("HAL")})
	outs, err := pair.a.ForwardLocal([]byte("hdr"), []byte("pay"), 7, ev)
	if err != nil || len(outs) != 1 {
		t.Fatalf("forward setup: outs=%d err=%v", len(outs), err)
	}
	decode := func(header []byte) (*pubsub.Event, error) {
		return mustEvent(t, pair.b.schema, map[string]pubsub.Value{"symbol": pubsub.Str("HAL")}), nil
	}
	fwd, _, err := pair.b.HandleForward(pair.pb, outs[0].Frame, decode)
	if err != nil {
		t.Fatal(err)
	}
	if fwd == nil || string(fwd.Header) != "hdr" || string(fwd.Payload) != "pay" || fwd.Epoch != 7 {
		t.Fatalf("first sighting mangled: %+v", fwd)
	}
	if fwd.Origin != "A" || fwd.Seq == 0 {
		t.Fatalf("origin envelope mangled: %+v", fwd)
	}
	// Replay of the same frame: suppressed.
	fwd, _, err = pair.b.HandleForward(pair.pb, outs[0].Frame, decode)
	if err != nil {
		t.Fatal(err)
	}
	if fwd != nil {
		t.Fatal("duplicate frame accepted for delivery")
	}
	if c := pair.b.Snapshot(); c.SuppressedDuplicates != 1 {
		t.Fatalf("suppressed counter %d, want 1", c.SuppressedDuplicates)
	}
	// A frame from an unknown key (tampered) is rejected.
	if _, _, err := pair.b.HandleForward(pair.pb, []byte("garbage"), decode); !errors.Is(err, ErrBadForward) {
		t.Fatalf("tampered frame error %v", err)
	}
}
