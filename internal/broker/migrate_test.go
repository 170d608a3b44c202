package broker

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"scbr/internal/attest"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/simmem"
)

// collectExactly drains ch until every payload in want arrived exactly
// once, then verifies silence — a duplicate, an unexpected payload, or
// a missing one fails the test.
func collectExactly(t *testing.T, name string, ch <-chan Delivery, want map[string]bool) {
	t.Helper()
	got := make(map[string]int, len(want))
	deadline := time.After(30 * time.Second)
	for received := 0; received < len(want); {
		select {
		case d, ok := <-ch:
			if !ok {
				t.Fatalf("%s: delivery channel closed after %d/%d deliveries", name, received, len(want))
			}
			if d.Err != nil {
				t.Fatalf("%s: delivery error: %v", name, d.Err)
			}
			p := string(d.Payload)
			if !want[p] {
				t.Fatalf("%s: unexpected payload %q", name, p)
			}
			got[p]++
			if got[p] > 1 {
				t.Fatalf("%s: duplicate delivery of %q", name, p)
			}
			received++
		case <-deadline:
			t.Fatalf("%s: timed out with %d/%d deliveries (missing e.g. %s)", name, received, len(want), firstMissing(want, got))
		}
	}
	select {
	case d := <-ch:
		t.Fatalf("%s: extra delivery %q after the expected set", name, d.Payload)
	case <-time.After(150 * time.Millisecond):
	}
}

func firstMissing(want map[string]bool, got map[string]int) string {
	for p := range want {
		if got[p] == 0 {
			return p
		}
	}
	return "<none>"
}

// runRepartitionCell drives one cell of the equivalence matrix: the
// delivered set must be exactly the predicate-determined expectation
// whether the slice fleet holds still, resizes mid-publish, or resizes
// mid-register — across both schemes and both transition policies.
func runRepartitionCell(t *testing.T, schemeName string, switchless bool, mode string) {
	mutate := func(cfg *RouterConfig) {
		cfg.Partitions = 2
		cfg.Switchless = switchless
	}
	var sys *testSystem
	if schemeName == scheme.ASPE {
		sys = newSchemeTestSystem(t, schemeName, aspeTestCodec(t), mutate)
	} else {
		sys = newTestSystemCfg(t, mutate)
	}

	alice, aliceRx := sys.attach("alice")
	bob, bobRx := sys.attach("bob")
	aliceSub, err := alice.Subscribe(bg, halSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Subscribe(bg, halSpec(80)); err != nil {
		t.Fatal(err)
	}

	const rounds = 6
	prices := []float64{10, 25, 40, 55, 70, 85}
	payload := func(round int, price float64) string { return fmt.Sprintf("r%d-p%g", round, price) }

	wantAlice, wantBob := make(map[string]bool), make(map[string]bool)
	for r := 0; r < rounds; r++ {
		for _, p := range prices {
			if p < 50 {
				wantAlice[payload(r, p)] = true
			}
			if p < 80 {
				wantBob[payload(r, p)] = true
			}
		}
	}

	publishAll := func() {
		for r := 0; r < rounds; r++ {
			for _, p := range prices {
				if err := sys.publisher.Publish(bg, halQuote(p), []byte(payload(r, p))); err != nil {
					t.Errorf("publish round %d price %g: %v", r, p, err)
					return
				}
			}
		}
	}
	repartition := func(targets ...int) error {
		for _, k := range targets {
			if _, err := sys.router.Repartition(bg, k); err != nil {
				return fmt.Errorf("repartition to %d: %w", k, err)
			}
		}
		return nil
	}

	var carolRx <-chan Delivery
	wantCarol := make(map[string]bool)
	switch mode {
	case "none":
		publishAll()
	case "publish":
		// Grow then shrink while the storm is in flight.
		errc := make(chan error, 1)
		go func() { errc <- repartition(4, 1) }()
		publishAll()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	case "register":
		// A third subscriber registers while shards are moving; the
		// storm runs after, so its deliveries prove the registration
		// landed on a live slice.
		errc := make(chan error, 1)
		go func() { errc <- repartition(4, 3) }()
		var carol *Client
		carol, carolRx = sys.attach("carol")
		if _, err := carol.Subscribe(bg, halSpec(30)); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			for _, p := range prices {
				if p < 30 {
					wantCarol[payload(r, p)] = true
				}
			}
		}
		publishAll()
	default:
		t.Fatalf("unknown mode %q", mode)
	}

	collectExactly(t, "alice", aliceRx, wantAlice)
	collectExactly(t, "bob", bobRx, wantBob)
	if carolRx != nil {
		collectExactly(t, "carol", carolRx, wantCarol)
	}

	// Ownership survives the moves: unsubscribing a migrated
	// subscription must still find and silence it.
	if err := aliceSub.Unsubscribe(bg); err != nil {
		t.Fatalf("unsubscribe after migration: %v", err)
	}
	if err := sys.publisher.Publish(bg, halQuote(10), []byte("post-unsub")); err != nil {
		t.Fatal(err)
	}
	expectNoDelivery(t, aliceRx)

	snap := sys.router.PlacementSnapshot()
	if mode != "none" && snap.Migrations == 0 {
		t.Fatalf("no migrations recorded: %+v", snap)
	}
	if got := sys.router.Partitions(); got != snap.Slices {
		t.Fatalf("router has %d partitions, placement says %d", got, snap.Slices)
	}
}

func TestRepartitionEquivalence(t *testing.T) {
	for _, schemeName := range []string{scheme.Plain, scheme.ASPE} {
		for _, switchless := range []bool{false, true} {
			for _, mode := range []string{"none", "publish", "register"} {
				schemeName, switchless, mode := schemeName, switchless, mode
				t.Run(fmt.Sprintf("%s/switchless=%v/%s", schemeName, switchless, mode), func(t *testing.T) {
					runRepartitionCell(t, schemeName, switchless, mode)
				})
			}
		}
	}
}

// TestRepartitionStress races publications, subscription churn, and
// repeated fleet resizes; run under -race it doubles as the migration
// engine's data-race probe.
func TestRepartitionStress(t *testing.T) {
	sys := newTestSystemCfg(t, func(cfg *RouterConfig) {
		cfg.Partitions = 2
		cfg.Switchless = true
	})
	alice, aliceRx := sys.attach("alice")
	if _, err := alice.Subscribe(bg, halSpec(1e9)); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range aliceRx {
		}
	}()

	churner, _ := sys.attach("churner")
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := sys.publisher.Publish(bg, halQuote(float64(i%100)), []byte(fmt.Sprintf("s%d", i))); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sub, err := churner.Subscribe(bg, halSpec(float64(10+i%50)))
			if err != nil {
				t.Errorf("churn subscribe %d: %v", i, err)
				return
			}
			if err := sub.Unsubscribe(bg); err != nil {
				t.Errorf("churn unsubscribe %d: %v", i, err)
				return
			}
		}
	}()

	for _, k := range []int{4, 1, 3, 2, 5, 1} {
		if _, err := sys.router.Repartition(bg, k); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("repartition to %d under load: %v", k, err)
		}
	}
	close(stop)
	wg.Wait()

	snap := sys.router.PlacementSnapshot()
	if snap.Slices != 1 || sys.router.Partitions() != 1 {
		t.Fatalf("final fleet: placement %d, router %d, want 1", snap.Slices, sys.router.Partitions())
	}
	if snap.Migrations == 0 || snap.ShardsMoved == 0 {
		t.Fatalf("no migration activity recorded: %+v", snap)
	}
}

// TestRepartitionSealRestorePlacement seals a resized router and
// restores it into a fresh fleet built with the post-resize partition
// count: the sealed shard→slice table must reinstate verbatim and the
// replayed database must match live traffic.
//
// SealToMRENCLAVE binds the per-slice EPC share into the measured
// identity (EPCBytes enters the ECREATE hash), so the restoring fleet
// must launch slices with the same share the sealing fleet used:
// EPCBytes here scales with the partition count to hold the share
// constant.
func TestRepartitionSealRestorePlacement(t *testing.T) {
	dev, err := sgx.NewDevice([]byte("repartition-persist"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := attest.NewQuoter(dev, "repartition-persist-platform")
	if err != nil {
		t.Fatal(err)
	}
	ias := attest.NewService()
	ias.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	signer, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	const epcPerSlice = 4 << 20
	cfg := RouterConfig{
		EnclaveImage:  []byte("repartition persistent router image"),
		EnclaveSigner: signer.Public(),
		Partitions:    2,
		EPCBytes:      2 * epcPerSlice,
	}
	r1, err := NewRouter(dev, quoter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(ias, r1.Identity())
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
	if _, err := r1.Repartition(bg, 3); err != nil {
		t.Fatalf("repartition before seal: %v", err)
	}
	sealedSnap := r1.PlacementSnapshot()
	blob, err := r1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	_ = ln1.Close()

	// A fresh 2-slice router cannot take a 3-slice snapshot.
	rMismatch, err := NewRouter(dev, quoter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rMismatch.RestoreState(blob); err == nil {
		t.Fatal("2-slice router restored a 3-slice snapshot")
	}
	rMismatch.Close()

	cfg3 := cfg
	cfg3.Partitions = 3
	cfg3.EPCBytes = 3 * epcPerSlice
	r2, err := NewRouter(dev, quoter, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.RestoreState(blob); err != nil {
		t.Fatalf("restoring resized state: %v", err)
	}
	restored := r2.PlacementSnapshot()
	if restored.Slices != sealedSnap.Slices || len(restored.Table) != len(sealedSnap.Table) {
		t.Fatalf("restored placement %+v, sealed %+v", restored, sealedSnap)
	}
	for s, slice := range sealedSnap.Table {
		if restored.Table[s] != slice {
			t.Fatalf("shard %d restored onto slice %d, sealed on %d", s, restored.Table[s], slice)
		}
	}

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
	if err := pub.Publish(bg, halQuote(42), []byte("after resize restart")); err != nil {
		t.Fatal(err)
	}
	d, err := sub.Next(bg)
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "after resize restart" {
		t.Fatalf("payload = %q", d.Payload)
	}
}

func TestRepartitionValidation(t *testing.T) {
	sys := newTestSystemCfg(t, func(cfg *RouterConfig) { cfg.Partitions = 2 })
	snap := sys.router.PlacementSnapshot()
	if _, err := sys.router.Repartition(bg, -1); err == nil {
		t.Fatal("repartition to -1 accepted")
	}
	if _, err := sys.router.Repartition(bg, snap.Shards+1); err == nil {
		t.Fatalf("repartition past the %d-shard map accepted", snap.Shards)
	}
	same, err := sys.router.Repartition(bg, snap.Slices)
	if err != nil {
		t.Fatalf("no-op repartition: %v", err)
	}
	if same.Epoch != snap.Epoch {
		t.Fatalf("no-op repartition bumped the epoch: %d → %d", snap.Epoch, same.Epoch)
	}
	// k = 0 resizes to the footprint-sized recommendation: this
	// near-empty store fits one slice.
	want := sys.router.RecommendPartitions()
	if want != 1 {
		t.Fatalf("recommendation for a near-empty store = %d, want 1", want)
	}
	auto, err := sys.router.Repartition(bg, 0)
	if err != nil {
		t.Fatalf("auto repartition: %v", err)
	}
	if auto.Slices != want {
		t.Fatalf("auto repartition left %d slices, recommendation was %d", auto.Slices, want)
	}
}

func TestRepartitionAfterClose(t *testing.T) {
	sys := newTestSystemCfg(t, func(cfg *RouterConfig) { cfg.Partitions = 2 })
	sys.router.Close()
	if _, err := sys.router.Repartition(bg, 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("repartition after close: %v, want ErrClosed", err)
	}
}
