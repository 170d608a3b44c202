package broker

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"scbr/internal/attest"
	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
)

// TestRegisterDigestEntries: the federation digest is fed inside slice
// 0 and nowhere else — one enclave entry per register frame and one per
// restore, whatever the item count. On two slices, an n-item frame
// costs 1 + slices touched entries (tag check, one ingest per slice the
// frame's items land on) on a router with no RouterID and 2 + slices
// touched on a federated one; a restore costs its unseal, one
// configuration per slice, one ingest per slice the log lands on, and
// one more for the digest when federated. The digest follows
// registrations, canonical duplicates and removals, and a seal →
// restore rebuilds it.
func TestRegisterDigestEntries(t *testing.T) {
	const n = 8
	f := newRestartFixture(t)
	f.cfg.Partitions = 2
	plainCfg := f.cfg
	fedCfg := f.cfg
	fedCfg.RouterID, fedCfg.PeerVerifier = "digest-router", attest.NewService()
	launch := func(cfg RouterConfig) *Router {
		f.cfg = cfg
		r := f.newRouter()
		t.Cleanup(r.Close)
		return r
	}
	register := func(r *Router, pub *Publisher, specs []pubsub.SubscriptionSpec) ([]uint64, uint64) {
		t.Helper()
		before := r.MeterSnapshot().Transitions
		ids, err := pub.RegisterBulk(bg, "bulk", "", specs)
		if err != nil {
			t.Fatal(err)
		}
		return ids, r.MeterSnapshot().Transitions - before
	}
	localEntries := func(r *Router, want int, after string) {
		t.Helper()
		if got := r.FederationSnapshot().LocalEntries; got != want {
			t.Fatalf("after %s: %d local digest entries, want %d", after, got, want)
		}
	}

	plain := launch(plainCfg)
	plainPub, _ := f.populate(plain, 0)
	admitTestClient(t, plainPub, "bulk")
	plainIDs, cost := register(plain, plainPub, makeBulkSpecs(n))
	if touched := slicesHolding(plain, plainIDs); cost != 1+touched {
		t.Errorf("a %d-item frame on %d slices cost %d enclave entries without a RouterID, want 1 + slices touched", n, touched, cost)
	}
	localEntries(plain, 0, "registering on a router with no overlay")

	fed := launch(fedCfg)
	pub, _ := f.populate(fed, 0)
	admitTestClient(t, pub, "bulk")
	ids, cost := register(fed, pub, makeBulkSpecs(n))
	if touched := slicesHolding(fed, ids); cost != 2+touched {
		t.Errorf("a %d-item frame on %d slices cost %d enclave entries on a federated router, want 2 + slices touched", n, touched, cost)
	}
	localEntries(fed, n, "a frame of distinct subscriptions")
	dup, cost := register(fed, pub, makeBulkSpecs(1))
	if cost != 3 {
		t.Errorf("a one-item frame cost %d enclave entries on a federated router, want 3", cost)
	}
	localEntries(fed, n, "a canonical duplicate")
	remove := func(id uint64) {
		t.Helper()
		reply, err := pub.routerRequest("", &Message{Type: TypeRemove, ClientID: "bulk", SubID: id})
		if err != nil {
			t.Fatal(err)
		}
		if err := expect(reply, TypeRemoveOK); err != nil {
			t.Fatal(err)
		}
	}
	remove(ids[0])
	localEntries(fed, n, "removing one of two duplicates")
	remove(dup[0])
	localEntries(fed, n-1, "removing the other")

	blob, err := fed.SealState()
	if err != nil {
		t.Fatal(err)
	}
	restoreCost := func(cfg RouterConfig) (*Router, uint64) {
		t.Helper()
		r := launch(cfg)
		before := r.MeterSnapshot().Transitions
		if err := r.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
		return r, r.MeterSnapshot().Transitions - before
	}
	restoredPlain, plainCost := restoreCost(plainCfg)
	restoredFed, fedCost := restoreCost(fedCfg)
	localEntries(restoredPlain, 0, "restoring into a router with no overlay")
	localEntries(restoredFed, n-1, "restoring into a federated router")
	if fedCost != plainCost+1 {
		t.Errorf("restoring %d entries cost %d enclave entries federated and %d not, want one more for the digest", n-1, fedCost, plainCost)
	}
	var touched uint64
	for _, subs := range restoredPlain.DataPlaneStats().PerPartition {
		if subs > 0 {
			touched++
		}
	}
	if want := 1 + uint64(plainCfg.Partitions) + touched; plainCost != want {
		t.Errorf("restoring %d entries onto %d slices cost %d enclave entries, want 1 (unseal) + %d (configure) + %d (slices touched)",
			n-1, touched, plainCost, plainCfg.Partitions, touched)
	}
}

// slicesHolding counts the slices that hold ids.
func slicesHolding(r *Router, ids []uint64) uint64 {
	held := make(map[int]bool)
	for _, id := range ids {
		if s, ok := r.hub.OwnerSlice(id); ok {
			held[s] = true
		}
	}
	return uint64(len(held))
}

// TestRegisterUnderCurrentKey: the partition's opener follows the
// provisioned key for registrations as well as publications. After a
// second provisioning under a different SK, a registration sealed under
// the new key ingests (the opener is rebuilt by the registration, with
// no publication in between); a blob sealed under the old key, in a
// frame tagged under the new one, is refused with ErrAuthentication and
// registers nothing; and the slice's batch match opens headers under
// the key provisioned last.
func TestRegisterUnderCurrentKey(t *testing.T) {
	f := newRestartFixture(t)
	r := f.newRouter()
	t.Cleanup(r.Close)
	p := r.parts[0]
	openerKey := func() *scrypto.SymmetricKey {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.openerKey
	}
	old, firstIDs := f.populate(r, 1)
	if openerKey() != r.keys() {
		t.Fatal("the registration did not build the partition's opener under the provisioned key")
	}
	oldKey := openerKey()

	cur, _ := f.populate(r, 0) // a second publisher provisions a fresh SK
	if r.keys() == oldKey || string(r.keys().Bytes()) != string(pubSK(cur).Bytes()) {
		t.Fatal("re-provisioning did not install the new publisher's SK")
	}
	sealed := func(pub *Publisher) []byte {
		t.Helper()
		enc, err := scrypto.Seal(pubSK(pub), encodeSpec(t, halSpec(60)))
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	reply, err := cur.routerRequest("", registerFrame(cur, "alice", sealed(cur)))
	if err != nil {
		t.Fatal(err)
	}
	if err := expect(reply, TypeRegisterBatchOK); err != nil {
		t.Fatalf("blob under the current SK: %v", err)
	}
	if openerKey() != r.keys() {
		t.Fatal("the registration did not rebuild the partition's opener under the new key")
	}
	ids := append(firstIDs, reply.SubIDs...)

	stale := sealed(old)
	reply, err = cur.routerRequest("", registerFrame(cur, "alice", stale))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || !strings.Contains(reply.Err, scrypto.ErrAuthentication.Error()) {
		t.Fatalf("blob under the previous SK: reply %+v, want the envelope's authentication refusal", reply)
	}
	r.stateMu.RLock()
	_, err = r.ingestGroup(0, r.keys(), []regItem{{logEntry: logEntry{ClientID: "alice", Blob: stale}}}, []int{0})
	r.stateMu.RUnlock()
	if !errors.Is(err, scrypto.ErrAuthentication) {
		t.Fatalf("ingesting a blob under the previous SK: %v, want ErrAuthentication", err)
	}
	if got := r.DataPlaneStats().Subscriptions; got != 2 {
		t.Fatalf("data plane holds %d subscriptions, want the 2 registered under live keys", got)
	}

	// A third provisioning, then publications: the slice's batch match
	// rebuilds the opener too, and opens only headers under the new key.
	last, _ := f.populate(r, 0)
	match := func(pub *Publisher) []uint64 {
		t.Helper()
		raw, err := pubsub.EncodeEventSpec(halQuote(30))
		if err != nil {
			t.Fatal(err)
		}
		header, err := scrypto.Seal(pubSK(pub), raw)
		if err != nil {
			t.Fatal(err)
		}
		r.planeMu.RLock()
		job := r.acquireJob(&Message{Type: TypePublish, Blob: header})
		r.planeMu.RUnlock()
		defer r.releaseJob(job)
		p.mu.Lock()
		r.matchSliceBatch(p, []*matchJob{job}, r.keys())
		p.mu.Unlock()
		var got []uint64
		for _, rec := range job.parts[0].recs {
			got = append(got, rec.SubID)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		return got
	}
	if got := match(cur); len(got) != 0 {
		t.Fatalf("a header under the previous SK matched %v", got)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if got := match(last); len(got) != len(ids) || got[0] != ids[0] || got[1] != ids[1] {
		t.Fatalf("a header under the current SK matched %v, want %v", got, ids)
	}
	if openerKey() != r.keys() {
		t.Fatal("the publication did not rebuild the partition's opener under the newest key")
	}
}
