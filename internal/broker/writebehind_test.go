package broker

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scbr/internal/attest"
	"scbr/internal/scrypto"
	"scbr/internal/wire"
)

// frameTap records the first body byte of every frame written through
// a connection: a data frame's tag, or '{' for a JSON control frame.
// It follows the stream's frames — a 4-byte little-endian length, then
// the body — however the writes cut them.
type frameTap struct {
	net.Conn
	mu   sync.Mutex
	head []byte // the prefix and first body byte of the frame being written
	left int    // bytes of the current frame's body still to come
	tags []byte
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
			f.head = f.head[:0]
		case len(f.head) == 5:
			f.tags = append(f.tags, f.head[4])
			f.left = int(binary.LittleEndian.Uint32(f.head)) - 1
			f.head = f.head[:0]
		}
	}
	f.mu.Unlock()
	return f.Conn.Write(b)
}

// take returns the tags recorded since the last take.
func (f *frameTap) take() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	tags := f.tags
	f.tags = nil
	return tags
}

// heldConn counts the Writes that reach the connection and holds the
// first one until release is closed.
type heldConn struct {
	net.Conn
	writes  atomic.Int64
	entered chan struct{} // closed when the first Write arrives
	release chan struct{}
}

func (c *heldConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) == 1 {
		close(c.entered)
		<-c.release
	}
	return c.Conn.Write(p)
}

// linkedPublisher is an unprovisioned publisher whose default route is
// conn; it seals payloads under a group key the test can open.
func linkedPublisher(t *testing.T, conn net.Conn) (*Publisher, *scrypto.SymmetricKey) {
	t.Helper()
	pub, err := NewPublisher(attest.NewService(), attest.Identity{})
	if err != nil {
		t.Fatal(err)
	}
	pub.routerConn = newRouterLink(newBufferedConn(conn))
	key, _ := pub.group.Join("tap")
	return pub, key
}

// readPayloads reads n publish frames from r and returns their
// payloads, opened under key, in arrival order.
func readPayloads(r net.Conn, key *scrypto.SymmetricKey, n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		_ = r.SetReadDeadline(time.Now().Add(10 * time.Second))
		m, err := Recv(r)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		if m.Type != TypePublish {
			return nil, fmt.Errorf("frame %d is %q, want publish", i, m.Type)
		}
		plain, err := scrypto.Open(key, m.Payload)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		out[i] = string(plain)
	}
	return out, nil
}

// mustReadPayloads is readPayloads on the test's goroutine.
func mustReadPayloads(t *testing.T, r net.Conn, key *scrypto.SymmetricKey, n int) []string {
	t.Helper()
	out, err := readPayloads(r, key, n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPublisherWritesCoalesce: publishes queued behind a Write in
// flight leave together in the next one, and arrive in call order.
func TestPublisherWritesCoalesce(t *testing.T) {
	server, client := tcpPair(t)
	held := &heldConn{Conn: client, entered: make(chan struct{}), release: make(chan struct{})}
	pub, key := linkedPublisher(t, held)
	const n = 50
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("event-%02d", i)
	}
	if err := pub.Publish(bg, halQuote(1), []byte(want[0])); err != nil {
		t.Fatal(err)
	}
	<-held.entered // the flusher is inside its first Write
	for i := 1; i < n; i++ {
		if err := pub.Publish(bg, halQuote(1), []byte(want[i])); err != nil {
			t.Fatal(err)
		}
	}
	close(held.release)
	if err := pub.Flush(bg); err != nil {
		t.Fatal(err)
	}
	if w := held.writes.Load(); w > 2 {
		t.Fatalf("%d publishes took %d writes, want ≤ 2", n, w)
	}
	got := mustReadPayloads(t, newBufferedConn(server), key, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d carried %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPublisherFrameOrderAcrossTypes: publications, registrations and
// removals share the router connection's queue, so their frames leave
// in call order whatever their type.
func TestPublisherFrameOrderAcrossTypes(t *testing.T) {
	sys := newTestSystem(t)
	raw, err := net.Dial("tcp", sys.routerLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tap := &frameTap{Conn: raw}
	pub := sys.publisher
	if err := pub.ConnectRouter(bg, tap); err != nil {
		t.Fatal(err)
	}
	admitTestClient(t, pub, "alice")
	c, err := NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.Dial("tcp", sys.pubLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.ConnectPublisher(pc, pub.PublicKey())
	t.Cleanup(c.Close)
	tap.take() // provisioning

	const remove = '{' // a remove travels as a JSON control frame
	var want []byte
	batch := []Event{{Header: halQuote(1), Payload: []byte("a")}, {Header: halQuote(2), Payload: []byte("b")}}
	for round := 0; round < 3; round++ {
		if err := pub.Publish(bg, halQuote(1), []byte("p")); err != nil {
			t.Fatal(err)
		}
		ids, err := pub.RegisterBulk(bg, "alice", "", makeBulkSpecs(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.PublishBatch(bg, batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Unsubscribe(bg, ids[0]); err != nil {
			t.Fatal(err)
		}
		if err := pub.Publish(bg, halQuote(1), []byte("q")); err != nil {
			t.Fatal(err)
		}
		want = append(want, wire.TagPublish, wire.TagRegister, wire.TagPublishBatch, remove, wire.TagPublish)
	}
	if err := pub.Flush(bg); err != nil {
		t.Fatal(err)
	}
	if got := tap.take(); !bytes.Equal(got, want) {
		t.Fatalf("frame tags on the wire %x, want %x", got, want)
	}
}

// TestPublishAfterWriteFailure: once the router's side is gone, a
// write fails, and that failure is what every later Publish and Flush
// returns; no flusher is left behind.
func TestPublishAfterWriteFailure(t *testing.T) {
	server, client := tcpPair(t)
	pub, _ := linkedPublisher(t, client)
	_ = server.Close()
	deadline := time.Now().Add(5 * time.Second)
	var err error
	for err == nil {
		if time.Now().After(deadline) {
			t.Fatal("publishing into a closed connection never failed")
		}
		if err = pub.Publish(bg, halQuote(1), []byte("p")); err == nil {
			time.Sleep(time.Millisecond)
		}
	}
	if !strings.Contains(err.Error(), "writing frame") {
		t.Fatalf("Publish = %v, want the write failure", err)
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if ferr := pub.Flush(ctx); ferr == nil || ferr.Error() != err.Error() {
		t.Fatalf("Flush = %v, want %v", ferr, err)
	}
	if perr := pub.PublishBatch(ctx, []Event{{Header: halQuote(1)}}); perr == nil || perr.Error() != err.Error() {
		t.Fatalf("PublishBatch = %v, want %v", perr, err)
	}
	// The flusher clears the flag in the step that records the failure.
	l := pub.routerConn
	l.mu.Lock()
	running := l.flushing
	l.mu.Unlock()
	if running {
		t.Fatal("a flusher goroutine outlived the failed link")
	}
}

// TestPublishWaitsForSpaceUnderContext: with the router not reading, a
// Publish that finds a burst already queued waits for space only as
// long as its ctx, returns ctx.Err(), and leaves the stream whole:
// once the reader resumes, every frame queued before it decodes.
func TestPublishWaitsForSpaceUnderContext(t *testing.T) {
	server, client := tcpPair(t)
	pub, key := linkedPublisher(t, client)
	payload := make([]byte, stallPayloadLen)
	queued := 0
	for ; ; queued++ {
		if queued > 200 {
			t.Fatal("publishing never waited for queue space")
		}
		copy(payload, fmt.Sprintf("%08d", queued))
		ctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
		err := pub.Publish(ctx, halQuote(1), payload)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Publish %d = %v, want the ctx's deadline", queued, err)
			}
			break
		}
	}
	r := newBufferedConn(server)
	type result struct {
		payloads []string
		err      error
	}
	got := make(chan result, 1)
	go func() {
		p, err := readPayloads(r, key, queued)
		got <- result{p, err}
	}()
	if err := pub.Flush(bg); err != nil {
		t.Fatal(err)
	}
	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	for i, p := range res.payloads {
		if want := fmt.Sprintf("%08d", i); p[:8] != want {
			t.Fatalf("frame %d carried %q, want %q", i, p[:8], want)
		}
	}
	// The refused frame was never queued: the next one follows the last.
	if err := pub.Publish(bg, halQuote(1), []byte("next")); err != nil {
		t.Fatal(err)
	}
	if p := mustReadPayloads(t, r, key, 1); p[0] != "next" {
		t.Fatalf("the frame after the refused one carried %q", p[0])
	}
}

// TestPublisherDropsJumboBuffers: the 8 MB-budget frames of a batch of
// 3.5 MB payloads are written, and no queue buffer larger than
// sendBufMax stays behind on the link.
func TestPublisherDropsJumboBuffers(t *testing.T) {
	server, client := tcpPair(t)
	go func() { _, _ = io.Copy(io.Discard, server) }()
	pub, _ := linkedPublisher(t, client)
	batch := make([]Event, 3)
	for i := range batch {
		batch[i] = Event{Header: halQuote(1), Payload: make([]byte, 7<<19)}
	}
	if err := pub.PublishBatch(bg, batch); err != nil {
		t.Fatal(err)
	}
	if err := pub.Flush(bg); err != nil {
		t.Fatal(err)
	}
	l := pub.routerConn
	l.mu.Lock()
	defer l.mu.Unlock()
	if q, s := cap(l.q.buf), cap(l.spare); q > sendBufMax || s > sendBufMax {
		t.Fatalf("link retains buffers of %d and %d bytes, want ≤ %d", q, s, sendBufMax)
	}
}
