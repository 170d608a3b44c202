package scbr_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"scbr"
)

// TestSubscriptionRouting: two subscriptions on one client; each
// handle only sees the publications that matched it.
func TestSubscriptionRouting(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := deploy(t, "sub-routing")
	client := d.attach(ctx, "alice")

	cheap, err := client.Subscribe(ctx, halSpec(t)) // price < 50
	if err != nil {
		t.Fatal(err)
	}
	wideSpec, err := scbr.ParseSpec(`symbol = "HAL", price < 100`)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := client.Subscribe(ctx, wideSpec)
	if err != nil {
		t.Fatal(err)
	}

	// 75 matches only the wide subscription.
	if err := d.publisher.Publish(ctx, halQuote(75), []byte("mid")); err != nil {
		t.Fatal(err)
	}
	del, err := wide.Next(ctx)
	if err != nil || string(del.Payload) != "mid" {
		t.Fatalf("wide delivery = %+v, %v", del, err)
	}
	short, shortCancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer shortCancel()
	if d, err := cheap.Next(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cheap handle saw %+v, %v; want deadline", d, err)
	}

	// 42 matches both; each handle gets one delivery naming both IDs.
	if err := d.publisher.Publish(ctx, halQuote(42), []byte("low")); err != nil {
		t.Fatal(err)
	}
	for name, sub := range map[string]*scbr.Subscription{"cheap": cheap, "wide": wide} {
		del, err := sub.Next(ctx)
		if err != nil || string(del.Payload) != "low" {
			t.Fatalf("%s delivery = %+v, %v", name, del, err)
		}
		if len(del.SubIDs) != 2 {
			t.Fatalf("%s delivery names %v, want both subscriptions", name, del.SubIDs)
		}
	}
}

// TestNextContextCancellation: Next returns promptly with ctx.Err()
// when cancelled mid-wait.
func TestNextContextCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := deploy(t, "sub-cancel")
	client := d.attach(ctx, "alice")
	sub, err := client.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, waitCancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := sub.Next(waitCtx)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	waitCancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not observe cancellation")
	}
}

// TestServeContextCancellation: cancelling the serve context stops the
// accept loop with ctx.Err() and severs client connections.
func TestServeContextCancellation(t *testing.T) {
	dev, err := scbr.NewDevice([]byte("serve-cancel"))
	if err != nil {
		t.Fatal(err)
	}
	quoter, err := scbr.NewQuoter(dev, "serve-cancel-platform")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := scbr.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	router, err := scbr.NewRouter(dev, quoter, []byte("serve image"), signer.Public())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- router.Serve(ctx, ln) }()
	// A connected peer must be severed by the cancellation too.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not observe cancellation")
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("peer connection survived Serve cancellation")
	}
	// Serving again on the closed router reports ErrClosed... not
	// applicable here (ctx cancel, not Close); Close stays idempotent.
	router.Close()
	if err := router.Serve(context.Background(), ln); !errors.Is(err, scbr.ErrClosed) {
		t.Fatalf("Serve after Close = %v, want ErrClosed", err)
	}
}

// TestUnsubscribeClosesHandle: after Unsubscribe the handle drains its
// buffer and then reports ErrClosed.
func TestUnsubscribeClosesHandle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := deploy(t, "sub-unsub")
	client := d.attach(ctx, "alice")
	sub, err := client.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.publisher.Publish(ctx, halQuote(42), []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	// Wait for the delivery to land in the buffer before closing.
	del, err := sub.Next(ctx)
	if err != nil || string(del.Payload) != "buffered" {
		t.Fatalf("delivery = %+v, %v", del, err)
	}
	if err := sub.Unsubscribe(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(ctx); !errors.Is(err, scbr.ErrClosed) {
		t.Fatalf("Next after unsubscribe = %v, want ErrClosed", err)
	}
	select {
	case <-sub.Done():
	default:
		t.Fatal("Done not closed after unsubscribe")
	}
}

// TestConsumeHandlerMode: the callback mode delivers everything and
// ends cleanly when the subscription closes.
func TestConsumeHandlerMode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := deploy(t, "sub-consume")
	client := d.attach(ctx, "alice")
	sub, err := client.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := d.publisher.Publish(ctx, halQuote(42), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, 0, n)
	err = sub.Consume(ctx, func(del scbr.Delivery) error {
		if del.Err != nil {
			return del.Err
		}
		got = append(got, string(del.Payload))
		if len(got) == n {
			return sub.Unsubscribe(ctx) // closing the handle ends Consume with nil
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Consume = %v", err)
	}
	if len(got) != n || got[0] != "m0" || got[n-1] != fmt.Sprintf("m%d", n-1) {
		t.Fatalf("consumed %v", got)
	}
}

// TestRouterDisconnectClosesHandles: when the delivery connection is
// lost (router shut down), blocked Next callers unwind with ErrClosed
// instead of hanging.
func TestRouterDisconnectClosesHandles(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := deploy(t, "sub-disconnect")
	client := d.attach(ctx, "alice")
	sub, err := client.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := sub.Next(context.Background()) // no deadline: must unblock via the handle
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	d.router.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, scbr.ErrClosed) {
			t.Fatalf("Next after disconnect = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next hung after the router connection dropped")
	}
}

// TestPublishBatchRoundTrip: a batch pipelines through one router
// round trip; matching items are delivered in order, non-matching ones
// filtered, and the whole batch costs one enclave crossing on the
// synchronous path.
func TestPublishBatchRoundTrip(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := deploy(t, "batch")
	client := d.attach(ctx, "alice")
	sub, err := client.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}

	before := d.router.MeterSnapshot().Transitions
	batch := []scbr.Event{
		{Header: halQuote(49), Payload: []byte("in-1")},
		{Header: halQuote(60), Payload: []byte("filtered")},
		{Header: halQuote(42), Payload: []byte("in-2")},
	}
	if err := d.publisher.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"in-1", "in-2"} {
		del, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if del.Err != nil || string(del.Payload) != want {
			t.Fatalf("delivery = %+v, want %q", del, want)
		}
	}
	if got := d.router.MeterSnapshot().Transitions - before; got != 1 {
		t.Fatalf("batch charged %d enclave transitions, want 1", got)
	}

	// Empty batches are a no-op.
	if err := d.publisher.PublishBatch(ctx, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPublishBatchSplitsOversizedFrames: a batch whose ciphertext
// cannot fit one wire frame is split transparently instead of failing
// wholesale, preserving order. The split is counted on the wire; the
// router may match the two frames in one enclave entry or two,
// depending on whether the second is queued before the slice worker
// takes the first.
func TestPublishBatchSplitsOversizedFrames(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d := deploy(t, "batch-split")
	client := d.attach(ctx, "alice")
	sub, err := client.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	before, framesBefore := d.router.MeterSnapshot().Transitions, d.sent.publishBatches()
	// Three 3.5 MB payloads: two fit the 8 MB per-frame budget, the
	// third spills into a second frame.
	const payloadSize = 7 << 19
	batch := make([]scbr.Event, 3)
	for i := range batch {
		payload := make([]byte, payloadSize)
		payload[0] = byte('a' + i)
		batch[i] = scbr.Event{Header: halQuote(42), Payload: payload}
	}
	if err := d.publisher.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		del, err := sub.Next(ctx)
		if err != nil || del.Err != nil {
			t.Fatalf("delivery %d = %+v, %v", i, del, err)
		}
		if len(del.Payload) != payloadSize || del.Payload[0] != byte('a'+i) {
			t.Fatalf("delivery %d corrupted or out of order (lead byte %q)", i, del.Payload[0])
		}
	}
	if got := d.sent.publishBatches() - framesBefore; got != 2 {
		t.Fatalf("oversized batch travelled in %d publish-batch frames, want 2", got)
	}
	if got := d.router.MeterSnapshot().Transitions - before; got != 1 && got != 2 {
		t.Fatalf("oversized batch charged %d transitions, want 1 or 2 (one per drained group of its 2 frames)", got)
	}
}

// TestPublishBatchSwitchless: in the switchless configuration a batch
// takes one ring pass and zero per-message transitions.
func TestPublishBatchSwitchless(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := deploy(t, "batch-switchless", scbr.WithSwitchless())
	client := d.attach(ctx, "alice")
	sub, err := client.Subscribe(ctx, halSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the worker's one-time entry transition.
	if err := d.publisher.Publish(ctx, halQuote(42), []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(ctx); err != nil {
		t.Fatal(err)
	}
	before := d.router.MeterSnapshot().Transitions
	const n = 20
	batch := make([]scbr.Event, n)
	for i := range batch {
		batch[i] = scbr.Event{Header: halQuote(42), Payload: []byte(fmt.Sprintf("b%02d", i))}
	}
	if err := d.publisher.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		del, err := sub.Next(ctx)
		if err != nil || del.Err != nil {
			t.Fatalf("delivery %d = %+v, %v", i, del, err)
		}
		if want := fmt.Sprintf("b%02d", i); string(del.Payload) != want {
			t.Fatalf("delivery %d = %q, want %q (order lost)", i, del.Payload, want)
		}
	}
	if got := d.router.MeterSnapshot().Transitions - before; got != 0 {
		t.Fatalf("switchless batch charged %d transitions, want 0", got)
	}
}
