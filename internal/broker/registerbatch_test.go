package broker

import (
	"strings"
	"testing"

	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
)

// makeBulkSpecs builds n distinct subscriptions.
func makeBulkSpecs(n int) []pubsub.SubscriptionSpec {
	specs := make([]pubsub.SubscriptionSpec, n)
	for i := range specs {
		specs[i] = halSpec(float64(10 + i))
	}
	return specs
}

// admitTestClient registers a fresh response key for id so RegisterBulk
// passes admission without a wire Subscribe.
func admitTestClient(t *testing.T, pub *Publisher, id string) {
	t.Helper()
	keys, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Registry().Admit(id, keys.Public()); err != nil {
		t.Fatal(err)
	}
}

// One batch frame registers a whole population: IDs come back in spec
// order, the data plane holds them all, and ownership supports removal.
func TestRegisterBulk(t *testing.T) {
	f := newRestartFixture(t)
	f.cfg.Partitions = 4
	r := f.newRouter()
	t.Cleanup(r.Close)
	pub, _ := f.populate(r, 0)
	admitTestClient(t, pub, "bulk")

	const n = 50
	ids, err := pub.RegisterBulk(bg, "bulk", "", makeBulkSpecs(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n {
		t.Fatalf("got %d IDs, want %d", len(ids), n)
	}
	seen := make(map[uint64]bool, n)
	for _, id := range ids {
		if id == 0 || seen[id] {
			t.Fatalf("bad or duplicate subscription ID %d", id)
		}
		seen[id] = true
	}
	if got := r.DataPlaneStats().Subscriptions; got != n {
		t.Fatalf("data plane holds %d subscriptions, want %d", got, n)
	}
	// Bulk-registered subscriptions are removable like any other.
	reply, err := pub.routerRequest("", &Message{Type: TypeRemove, ClientID: "bulk", SubID: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := expect(reply, TypeRemoveOK); err != nil {
		t.Fatal(err)
	}
	if got := r.DataPlaneStats().Subscriptions; got != n-1 {
		t.Fatalf("data plane holds %d subscriptions after removal, want %d", got, n-1)
	}
}

// An unadmitted client cannot bulk-register.
func TestRegisterBulkRequiresAdmission(t *testing.T) {
	f := newRestartFixture(t)
	r := f.newRouter()
	t.Cleanup(r.Close)
	pub, _ := f.populate(r, 0)
	if _, err := pub.RegisterBulk(bg, "ghost", "", makeBulkSpecs(1)); err == nil {
		t.Fatal("bulk registration for unadmitted client succeeded")
	}
}

// A batch whose signature does not cover its items is rejected whole:
// no item registers.
func TestRegisterBatchBadSignature(t *testing.T) {
	f := newRestartFixture(t)
	r := f.newRouter()
	t.Cleanup(r.Close)
	pub, _ := f.populate(r, 0)

	raw := encodeSpec(t, halSpec(50))
	enc, err := scrypto.Seal(pubSK(pub), raw)
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{{Blob: enc}}
	// Signature over a different client binding — must not verify.
	sig, err := scrypto.Sign(pubKeys(pub), signedRegistrationBatch(items, "mallory"))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := pub.routerRequest("", &Message{Type: TypeRegisterBatch, ClientID: "alice", Items: items, Sig: sig})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || !strings.Contains(reply.Err, "signature") {
		t.Fatalf("batch with foreign signature accepted: %+v", reply)
	}
	if got := r.DataPlaneStats().Subscriptions; got != 0 {
		t.Fatalf("data plane holds %d subscriptions after rejected batch", got)
	}
}

// Logged entries carry no signature of their own and survive
// seal/restore: the sealed blob's AEAD authenticates them, whether they
// arrived one to a frame or twenty.
func TestRegisterBulkSealRestore(t *testing.T) {
	f := newRestartFixture(t)
	r1 := f.newRouter()
	pub, _ := f.populate(r1, 2) // two one-item frames too
	admitTestClient(t, pub, "bulk")
	const n = 20
	if _, err := pub.RegisterBulk(bg, "bulk", "", makeBulkSpecs(n)); err != nil {
		t.Fatal(err)
	}
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	r2 := f.newRouter()
	t.Cleanup(r2.Close)
	if err := r2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := r2.DataPlaneStats().Subscriptions; got != n+2 {
		t.Fatalf("restored data plane holds %d subscriptions, want %d", got, n+2)
	}
}
