package scbr_test

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"scbr"
)

// deployment is one complete in-process stack over loopback TCP,
// wired through the public v1 API only.
type deployment struct {
	t         *testing.T
	dev       *scbr.Device
	quoter    *scbr.Quoter
	router    *scbr.Router
	publisher *scbr.Publisher
	sent      *frameTap // the publisher's connection to the router
	routerLn  net.Listener
	pubLn     net.Listener
	cancel    context.CancelFunc
	wg        sync.WaitGroup
}

// deploy builds a device, router (with opts), attested publisher, and
// admission loop, all driven by one cancellable context.
func deploy(t *testing.T, seed string, opts ...scbr.Option) *deployment {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	dev, err := scbr.NewDevice([]byte(seed))
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := scbr.NewQuoter(dev, seed+"-platform")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := scbr.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	router, err := scbr.NewRouter(dev, quoter, []byte(seed+" router image"), signer.Public(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{t: t, dev: dev, quoter: quoter, router: router, cancel: cancel}

	d.routerLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = router.Serve(ctx, d.routerLn)
	}()

	ias := scbr.NewAttestationService()
	ias.RegisterPlatform(quoter.PlatformID(), quoter.AttestationKey())
	d.publisher, err = scbr.NewPublisher(ias, router.Identity())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := net.Dial("tcp", d.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	d.sent = &frameTap{Conn: rc}
	if err := d.publisher.ConnectRouter(ctx, d.sent); err != nil {
		t.Fatalf("attestation failed: %v", err)
	}

	d.pubLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			c, err := d.pubLn.Accept()
			if err != nil {
				return
			}
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				defer c.Close()
				d.publisher.ServeClient(ctx, c)
			}()
		}
	}()

	t.Cleanup(func() {
		cancel()
		_ = d.pubLn.Close()
		router.Close()
		d.wg.Wait()
	})
	return d
}

// frameTap counts the publish-batch frames written through a
// connection. It follows the stream's frames — a 4-byte little-endian
// length, then the body — and reads each body's first byte, which on a
// data frame is its tag (0x02 for publish-batch).
type frameTap struct {
	net.Conn
	mu      sync.Mutex
	head    []byte // the prefix and tag byte of the frame being written
	left    int    // bytes of the current frame's body still to come
	batches int
}

func (f *frameTap) Write(b []byte) (int, error) {
	f.mu.Lock()
	for rest := b; len(rest) > 0; {
		if f.left > 0 {
			k := min(f.left, len(rest))
			f.left -= k
			rest = rest[k:]
			continue
		}
		f.head = append(f.head, rest[0])
		rest = rest[1:]
		switch {
		case len(f.head) == 4 && binary.LittleEndian.Uint32(f.head) == 0:
			f.head = f.head[:0] // an empty body has no tag
		case len(f.head) == 5:
			if f.head[4] == 0x02 {
				f.batches++
			}
			f.left = int(binary.LittleEndian.Uint32(f.head)) - 1
			f.head = f.head[:0]
		}
	}
	f.mu.Unlock()
	return f.Conn.Write(b)
}

// publishBatches is how many publish-batch frames have been written.
func (f *frameTap) publishBatches() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.batches
}

// attach creates a client wired to publisher and router through the
// v1 Attach path (no legacy channel).
func (d *deployment) attach(ctx context.Context, id string) *scbr.Client {
	d.t.Helper()
	c, err := scbr.NewClient(id)
	if err != nil {
		d.t.Fatal(err)
	}
	pc, err := net.Dial("tcp", d.pubLn.Addr().String())
	if err != nil {
		d.t.Fatal(err)
	}
	c.ConnectPublisher(pc, d.publisher.PublicKey())
	rc, err := net.Dial("tcp", d.routerLn.Addr().String())
	if err != nil {
		d.t.Fatal(err)
	}
	if err := c.Attach(ctx, rc); err != nil {
		d.t.Fatal(err)
	}
	d.t.Cleanup(c.Close)
	return c
}

func halSpec(t *testing.T) scbr.SubscriptionSpec {
	t.Helper()
	spec, err := scbr.ParseSpec(`symbol = "HAL", price < 50`)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func halQuote(price float64) scbr.EventSpec {
	return scbr.EventSpec{Attrs: []scbr.NamedValue{
		{Name: "symbol", Value: scbr.Str("HAL")},
		{Name: "price", Value: scbr.Float(price)},
	}}
}

// TestPublicAPIEndToEnd exercises the full deployment through the v1
// facade only — what a downstream user of the library would write.
func TestPublicAPIEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := deploy(t, "facade-test")
	client := d.attach(ctx, "facade-client")

	sub, err := client.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID() == 0 {
		t.Fatal("subscription has no ID")
	}
	if got := sub.Spec().String(); got == "" {
		t.Fatal("subscription lost its spec")
	}
	if err := d.publisher.Publish(ctx, halQuote(42), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	del, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if del.Err != nil || string(del.Payload) != "payload" {
		t.Fatalf("delivery = %+v", del)
	}
	if len(del.SubIDs) != 1 || del.SubIDs[0] != sub.ID() {
		t.Fatalf("delivery names subscriptions %v, want [%d]", del.SubIDs, sub.ID())
	}
}

// TestEmbeddedEngines covers the facade's option-based engine
// constructors.
func TestEmbeddedEngines(t *testing.T) {
	plain, err := scbr.NewPlainEngine()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := scbr.NewDevice([]byte("facade-engine"))
	if err != nil {
		t.Fatal(err)
	}
	enclaved, enclave, err := scbr.NewEnclaveEngine(dev)
	if err != nil {
		t.Fatal(err)
	}
	if enclave.MRENCLAVE() == [32]byte{} {
		t.Fatal("enclave has empty measurement")
	}
	split, splitEnclave, err := scbr.NewSplitEngine(dev, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if splitEnclave.MRENCLAVE() == enclave.MRENCLAVE() {
		t.Fatal("split engine image must measure differently")
	}
	spec := scbr.SubscriptionSpec{Predicates: []scbr.Predicate{
		{Attr: "x", Op: scbr.OpGt, Value: scbr.Float(0)},
	}}
	for _, e := range []*scbr.Engine{plain, enclaved, split} {
		if _, err := e.Register(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	// A split cache larger than the EPC is rejected.
	if _, _, err := scbr.NewSplitEngine(dev, 2<<20, scbr.WithEPC(1<<20)); err == nil {
		t.Fatal("oversized split cache accepted")
	}
}

// TestWorkloadFacade covers the workload re-exports.
func TestWorkloadFacade(t *testing.T) {
	if got := len(scbr.Table1Workloads()); got != 9 {
		t.Fatalf("Table1Workloads = %d", got)
	}
	wl, err := scbr.WorkloadByName("e80a1")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := scbr.NewQuoteSet(1, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := scbr.NewWorkloadGenerator(wl, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Subscriptions(5)) != 5 || len(gen.Publications(5)) != 5 {
		t.Fatal("generator counts wrong")
	}
	if _, err := scbr.WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
