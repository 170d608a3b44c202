package broker

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/simmem"
	"scbr/internal/streamhub"
)

// enqueue is enqueueTo for the client named name, if it has state —
// what deliver does for each matched client.
func (t *deliveryTable) enqueue(name string, m *Message) {
	if st := t.client(name); st != nil {
		t.enqueueTo(st, m)
	}
}

// itemRecords lays one item's per-slice matches out as deliver takes
// them: a record per match, naming item 0.
func itemRecords(rows [][]core.MatchResult) [][]core.Record {
	parts := make([][]core.Record, len(rows))
	for p, row := range rows {
		for _, m := range row {
			parts[p] = append(parts[p], core.Record{SubID: m.SubID, ClientRef: m.ClientRef, Mask: 1})
		}
	}
	return parts
}

// deliverMsg builds one numbered test delivery.
func deliverMsg(i int) *Message {
	return &Message{Type: TypeDeliver, Payload: []byte{byte(i)}}
}

// TestDeliverBuildsNothingForClientThatNeverListened: matches for a
// client that has never listened here build no delivery — nothing
// allocated and nothing counted, whether it is the only client matched
// or shares the event with another — and once it listens it receives
// every publication that follows, with every matched subscription named.
func TestDeliverBuildsNothingForClientThatNeverListened(t *testing.T) {
	table := newDeliveryTable(64, 64, OverflowDropOldest, -1)
	defer table.close(time.Second)
	r := &Router{delivery: table, refName: []string{"quiet", "other"}}
	var fan fanout
	payload := []byte("sealed payload")
	alone := [][]core.MatchResult{{{SubID: 1, ClientRef: 0}, {SubID: 2, ClientRef: 0}}}
	shared := [][]core.MatchResult{{{SubID: 3, ClientRef: 1}, {SubID: 1, ClientRef: 0}}, {{SubID: 2, ClientRef: 0}}}
	aloneRecs, sharedRecs, payloads := itemRecords(alone), itemRecords(shared), [][]byte{payload}
	publish := func() {
		r.deliver(&fan, aloneRecs, payloads, 7, false)
		r.deliver(&fan, sharedRecs, payloads, 7, false)
	}
	if allocs := testing.AllocsPerRun(100, publish); allocs != 0 {
		t.Fatalf("deliveries to clients that never listened allocate %.1f times per publication pair, want 0", allocs)
	}
	if got := table.snapshot().Enqueued; got != 0 {
		t.Fatalf("%d deliveries enqueued for clients that never listened", got)
	}

	server, client := net.Pipe()
	defer client.Close()
	if err := table.attach("quiet", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	if m := mustRecv(t, client); m.Type != TypeListenOK || m.Cursor != 0 {
		t.Fatalf("hello = %+v", m)
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		publish()
	}
	for i := 1; i <= 2*rounds; i++ {
		m := mustRecv(t, client)
		if m.Type != TypeDeliver || m.Cursor != uint64(i) || m.Epoch != 7 || !bytes.Equal(m.Payload, payload) ||
			len(m.SubIDs) != 2 || m.SubIDs[0] != 1 || m.SubIDs[1] != 2 {
			t.Fatalf("delivery %d = %+v", i, m)
		}
	}
	if got := table.snapshot().Enqueued; got != 2*rounds {
		t.Fatalf("Enqueued = %d, want %d (the client that never listened counts nothing)", got, 2*rounds)
	}
}

// TestDeliverGroupsInterleavedRefs: matches whose client refs
// interleave — A B A C B, where B never listened — give one delivery
// each to A and C, their SubIDs in match order, and build nothing for
// B. The grouping scratch is left all zero for the next event, and in
// steady state the only allocations are the two deliveries' Messages
// and the one SubIDs block they share.
func TestDeliverGroupsInterleavedRefs(t *testing.T) {
	table := newDeliveryTable(4, 8, OverflowDropOldest, -1)
	defer table.close(time.Second)
	// A and C have delivery state but no connection: every delivery
	// lands in their replay rings, where the test reads it back.
	for _, name := range []string{"a", "c"} {
		table.clients[name] = &clientState{name: name}
	}
	const a, b, c = 3, 0, 5 // refs need not be in order or contiguous
	r := &Router{delivery: table, refName: []string{"b", "", "", "a", "", "c"}}
	matches := itemRecords([][]core.MatchResult{{{SubID: 1, ClientRef: a}, {SubID: 2, ClientRef: b}, {SubID: 3, ClientRef: a}, {SubID: 4, ClientRef: c}, {SubID: 5, ClientRef: b}}})
	payload := []byte("sealed payload")
	payloads := [][]byte{payload}
	var fan fanout
	newest := func(name string) *Message {
		st := table.clients[name]
		return st.ring[(st.head+len(st.ring)-1)%len(st.ring)]
	}
	for round := 1; round <= 10; round++ {
		r.deliver(&fan, matches, payloads, uint64(round), false)
		for _, want := range []struct {
			name   string
			subIDs []uint64
		}{{"a", []uint64{1, 3}}, {"c", []uint64{4}}} {
			m := newest(want.name)
			if m.Type != TypeDeliver || m.Cursor != uint64(round) || m.Epoch != uint64(round) || !bytes.Equal(m.Payload, payload) || !slices.Equal(m.SubIDs, want.subIDs) {
				t.Fatalf("round %d: delivery to %s = %+v, want SubIDs %v at cursor %d", round, want.name, m, want.subIDs, round)
			}
		}
		if got := table.snapshot().Enqueued; got != uint64(2*round) {
			t.Fatalf("round %d: %d deliveries enqueued, want %d", round, got, 2*round)
		}
		if _, built := table.clients["b"]; built {
			t.Fatalf("round %d: delivery state built for a client that never listened", round)
		}
		if slices.ContainsFunc(fan.slot, func(s int32) bool { return s != 0 }) {
			t.Fatalf("round %d: grouping scratch left at %v", round, fan.slot)
		}
	}
	// The rings are full, so they overwrite in place from here on.
	if allocs := testing.AllocsPerRun(100, func() { r.deliver(&fan, matches, payloads, 1, false) }); allocs != 3 {
		t.Fatalf("grouping an event for two clients allocates %.1f times, want 3 (two deliveries, one SubIDs block)", allocs)
	}
}

// TestDeliverAcrossSliceRows: an event's matches split over two
// slices' rows, with client refs interleaved across and within them,
// deliver exactly what the same matches merged into one row did — one
// delivery per listening client, its SubIDs in slice order and then
// match order, nothing for a client that never listened — and in
// steady state the only allocations are the two deliveries' Messages
// and their shared SubIDs block.
func TestDeliverAcrossSliceRows(t *testing.T) {
	const a, b, c = 2, 0, 4
	refName := []string{"b", "", "a", "", "c"}
	split := [][]core.MatchResult{
		{{SubID: 1, ClientRef: c}, {SubID: 2, ClientRef: a}, {SubID: 3, ClientRef: b}, {SubID: 4, ClientRef: c}},
		{{SubID: 5, ClientRef: b}, {SubID: 6, ClientRef: a}, {SubID: 7, ClientRef: c}, {SubID: 8, ClientRef: a}},
	}
	merged := itemRecords([][]core.MatchResult{append(slices.Clone(split[0]), split[1]...)})
	splitRecs := itemRecords(split)
	newRouter := func() *Router {
		table := newDeliveryTable(4, 8, OverflowDropOldest, -1)
		t.Cleanup(func() { table.close(time.Second) })
		for _, name := range []string{"a", "c"} {
			table.clients[name] = &clientState{name: name}
		}
		return &Router{delivery: table, refName: refName}
	}
	newest := func(r *Router, name string) *Message {
		st := r.delivery.clients[name]
		return st.ring[(st.head+len(st.ring)-1)%len(st.ring)]
	}
	rows, ref := newRouter(), newRouter()
	var fan, refFan fanout
	payload := []byte("sealed payload")
	payloads := [][]byte{payload}
	for round := 1; round <= 10; round++ {
		rows.deliver(&fan, splitRecs, payloads, uint64(round), false)
		ref.deliver(&refFan, merged, payloads, uint64(round), false)
		for _, want := range []struct {
			name   string
			subIDs []uint64
		}{{"a", []uint64{2, 6, 8}}, {"c", []uint64{1, 4, 7}}} {
			got, from := newest(rows, want.name), newest(ref, want.name)
			if got.Type != TypeDeliver || got.Cursor != from.Cursor || got.Epoch != from.Epoch || !bytes.Equal(got.Payload, from.Payload) || !slices.Equal(got.SubIDs, from.SubIDs) ||
				got.Cursor != uint64(round) || !slices.Equal(got.SubIDs, want.subIDs) {
				t.Fatalf("round %d: delivery to %s = %+v from the slices' rows, %+v from the merged row; want SubIDs %v at cursor %d",
					round, want.name, got, from, want.subIDs, round)
			}
		}
		if got, want := rows.delivery.snapshot().Enqueued, ref.delivery.snapshot().Enqueued; got != want || got != uint64(2*round) {
			t.Fatalf("round %d: %d deliveries enqueued from the rows, %d from the merged row, want %d", round, got, want, 2*round)
		}
		if _, built := rows.delivery.clients["b"]; built {
			t.Fatalf("round %d: delivery state built for a client that never listened", round)
		}
		if slices.ContainsFunc(fan.slot, func(s int32) bool { return s != 0 }) {
			t.Fatalf("round %d: grouping scratch left at %v", round, fan.slot)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { rows.deliver(&fan, splitRecs, payloads, 1, false) }); allocs != 3 {
		t.Fatalf("grouping two slices' rows for two clients allocates %.1f times, want 3 (two deliveries, one SubIDs block)", allocs)
	}
}

// expectClosedConn asserts the peer observes the connection closed
// promptly — the leak check for attach racing close.
func expectClosedConn(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after attach was refused")
	}
}

// TestAttachAfterCloseClosesConn: an attach landing on a closed table
// must not leak the caller's connection — the write side belonged to
// the delivery layer from the listen frame on, so ErrClosed comes with
// the conn closed.
func TestAttachAfterCloseClosesConn(t *testing.T) {
	table := newDeliveryTable(4, 8, OverflowDropOldest, -1)
	table.close(10 * time.Millisecond)
	server, client := net.Pipe()
	defer client.Close()
	if err := table.attach("a", server, &Message{Type: TypeListenOK}, 0, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach on closed table = %v, want ErrClosed", err)
	}
	expectClosedConn(t, client)
}

// TestAttachDuringCloseWithBlockedWriter is the attach-during-close
// race, deterministic: client A's writer is blocked mid-hello (its
// peer never reads), the table starts its bounded drain, and a
// reconnect attempt lands while the drain is in flight. The reconnect
// must be refused with its connection closed, the drain must still
// flush A's frames, and close must return.
func TestAttachDuringCloseWithBlockedWriter(t *testing.T) {
	table := newDeliveryTable(16, 32, OverflowDropOldest, -1)
	serverA, clientA := net.Pipe()
	defer clientA.Close()
	if err := table.attach("a", serverA, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	const pending = 3
	for i := 0; i < pending; i++ {
		table.enqueue("a", deliverMsg(i))
	}

	closed := make(chan struct{})
	go func() {
		table.close(5 * time.Second)
		close(closed)
	}()
	// The drain has begun once the table is marked closed; the writer
	// is still wedged on the unread hello.
	for {
		table.mu.Lock()
		c := table.closed
		table.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}

	serverB, clientB := net.Pipe()
	defer clientB.Close()
	if err := table.attach("a", serverB, &Message{Type: TypeListenOK}, 0, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach during close = %v, want ErrClosed", err)
	}
	expectClosedConn(t, clientB)

	// Unblock the drain: A's hello and every pending delivery arrive.
	if m := mustRecv(t, clientA); m.Type != TypeListenOK {
		t.Fatalf("first frame %q, want listen-ok", m.Type)
	}
	for i := 0; i < pending; i++ {
		m := mustRecv(t, clientA)
		if m.Type != TypeDeliver || m.Payload[0] != byte(i) {
			t.Fatalf("delivery %d: got %+v", i, m)
		}
		if m.Cursor != uint64(i+1) {
			t.Fatalf("delivery %d stamped cursor %d", i, m.Cursor)
		}
	}
	if _, err := Recv(clientA); err == nil {
		t.Fatal("connection still open after drain")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close never returned")
	}
}

// TestResumeReplaysAcrossReconnect: frames the previous connection
// never put on the wire are replayed — exactly once, in cursor order —
// when the listener reconnects and presents its last-seen cursor.
func TestResumeReplaysAcrossReconnect(t *testing.T) {
	table := newDeliveryTable(8, 16, OverflowDropOldest, -1)
	server1, client1 := net.Pipe()
	if err := table.attach("a", server1, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	if m := mustRecv(t, client1); m.Type != TypeListenOK || m.Cursor != 0 {
		t.Fatalf("hello = %+v", m)
	}
	for i := 1; i <= 3; i++ {
		table.enqueue("a", deliverMsg(i))
	}
	for i := 1; i <= 3; i++ {
		if m := mustRecv(t, client1); m.Cursor != uint64(i) {
			t.Fatalf("cursor %d, want %d", m.Cursor, i)
		}
	}
	// The connection dies; the client only processed up to cursor 2.
	_ = client1.Close()
	// Deliveries keep arriving while the client is away: the first may
	// land in the dead queue (the writer discovers the break on its
	// send), the rest accumulate ring-only. All stay replayable.
	for i := 4; i <= 5; i++ {
		table.enqueue("a", deliverMsg(i))
	}

	server2, client2 := net.Pipe()
	defer client2.Close()
	if err := table.attach("a", server2, &Message{Type: TypeListenOK}, 2, true); err != nil {
		t.Fatal(err)
	}
	hello := mustRecv(t, client2)
	if hello.Type != TypeListenOK || hello.Cursor != 5 || hello.Gap != 0 {
		t.Fatalf("resume hello = %+v, want cursor 5 gap 0", hello)
	}
	for i := 3; i <= 5; i++ {
		m := mustRecv(t, client2)
		if m.Type != TypeDeliver || m.Cursor != uint64(i) || m.Payload[0] != byte(i) {
			t.Fatalf("replayed frame %d: %+v", i, m)
		}
	}
	if got := table.snapshot().DeliveriesReplayed; got != 3 {
		t.Fatalf("DeliveriesReplayed = %d, want 3", got)
	}
}

// TestResumeReportsGap: deliveries evicted from the bounded replay
// ring before the client came back are unrecoverable, and the resume
// ack says exactly how many.
func TestResumeReportsGap(t *testing.T) {
	table := newDeliveryTable(4, 2, OverflowDropOldest, -1)
	server1, client1 := net.Pipe()
	if err := table.attach("a", server1, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	if m := mustRecv(t, client1); m.Type != TypeListenOK {
		t.Fatalf("hello = %+v", m)
	}
	_ = client1.Close()
	const total = 5
	for i := 1; i <= total; i++ {
		table.enqueue("a", deliverMsg(i))
	}
	server2, client2 := net.Pipe()
	defer client2.Close()
	if err := table.attach("a", server2, &Message{Type: TypeListenOK}, 0, true); err != nil {
		t.Fatal(err)
	}
	hello := mustRecv(t, client2)
	if hello.Cursor != total || hello.Gap != total-2 {
		t.Fatalf("resume hello = cursor %d gap %d, want cursor %d gap %d", hello.Cursor, hello.Gap, total, total-2)
	}
	for i := total - 1; i <= total; i++ {
		if m := mustRecv(t, client2); m.Cursor != uint64(i) {
			t.Fatalf("replayed cursor %d, want %d", m.Cursor, i)
		}
	}
	if got := table.snapshot().ReplayGapTotal; got != total-2 {
		t.Fatalf("ReplayGapTotal = %d, want %d", got, total-2)
	}
}

// TestOverflowDropOldest: a full queue evicts its oldest frame, keeps
// the connection, counts the drops, and the ring still covers the
// evicted frames for resume.
func TestOverflowDropOldest(t *testing.T) {
	table := newDeliveryTable(2, 16, OverflowDropOldest, -1)
	server, client := net.Pipe()
	defer client.Close()
	// The writer wedges on the unread hello, so the queue fills.
	if err := table.attach("a", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	const total = 5
	for i := 1; i <= total; i++ {
		table.enqueue("a", deliverMsg(i))
	}
	c := table.snapshot()
	if c.DeliveriesDropped != total-2 {
		t.Fatalf("DeliveriesDropped = %d, want %d", c.DeliveriesDropped, total-2)
	}
	if c.SlowConsumerDisconnects != 0 {
		t.Fatal("drop-oldest severed the connection")
	}
	// The survivors are the newest frames, in order.
	if m := mustRecv(t, client); m.Type != TypeListenOK {
		t.Fatalf("hello = %+v", m)
	}
	for i := total - 1; i <= total; i++ {
		if m := mustRecv(t, client); m.Cursor != uint64(i) {
			t.Fatalf("survivor cursor %d, want %d", m.Cursor, i)
		}
	}
}

// TestOverflowDisconnect: the legacy policy severs the stalled
// listener and counts it; the ring keeps the frames for resumption.
func TestOverflowDisconnect(t *testing.T) {
	table := newDeliveryTable(2, 16, OverflowDisconnect, -1)
	server, client := net.Pipe()
	defer client.Close()
	if err := table.attach("a", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		table.enqueue("a", deliverMsg(i))
	}
	if got := table.snapshot().SlowConsumerDisconnects; got != 1 {
		t.Fatalf("SlowConsumerDisconnects = %d, want 1", got)
	}
	expectClosedConn(t, client)
	// Everything enqueued — including the overflow frame — is
	// recoverable by resuming from the start.
	server2, client2 := net.Pipe()
	defer client2.Close()
	if err := table.attach("a", server2, &Message{Type: TypeListenOK}, 0, true); err != nil {
		t.Fatal(err)
	}
	if hello := mustRecv(t, client2); hello.Gap != 0 {
		t.Fatalf("resume gap = %d, want 0", hello.Gap)
	}
	for i := 1; i <= 3; i++ {
		if m := mustRecv(t, client2); m.Cursor != uint64(i) {
			t.Fatalf("replayed cursor %d, want %d", m.Cursor, i)
		}
	}
}

// wedgeWriter blocks until the delivery writer is inside a Write on
// the other end of a net.Pipe, by reading the first frame's 4-byte
// prefix: a pipe Write returns only once every byte is consumed, so
// from here on the writer is stuck holding exactly the burst it had
// composed, and nothing enqueued later can join it. The returned
// reader replays the prefix ahead of the rest of the stream.
func wedgeWriter(t *testing.T, client net.Conn) io.Reader {
	t.Helper()
	var prefix [4]byte
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(client, prefix[:]); err != nil {
		t.Fatalf("reading the wedged frame's prefix: %v", err)
	}
	_ = client.SetReadDeadline(time.Time{})
	return io.MultiReader(bytes.NewReader(prefix[:]), client)
}

// TestOverflowPauseBackpressure pins the Pause bound under burst
// writes: a burst takes only what is queued when it starts, so once
// the writer is blocked in a Write the queue bound holds — a full
// queue blocks the enqueue until the consumer drains, losslessly —
// and a reconnect releases a blocked enqueue instead of deadlocking,
// with the parked frame recovered via replay.
func TestOverflowPauseBackpressure(t *testing.T) {
	table := newDeliveryTable(1, 16, OverflowPause, -1)
	server, client := net.Pipe()
	if err := table.attach("a", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	if m := mustRecv(t, client); m.Type != TypeListenOK {
		t.Fatalf("hello = %+v", m)
	}
	// Wedge the writer first: frame 1 alone is its burst, stuck in the
	// unread Write. Only then does frame 2 fill the queue, so frame 3
	// must block — the queue bound plus one burst, deterministically.
	table.enqueue("a", deliverMsg(1))
	stream := wedgeWriter(t, client)
	table.enqueue("a", deliverMsg(2))
	unblocked := make(chan struct{})
	go func() {
		table.enqueue("a", deliverMsg(3))
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("enqueue did not block on a full queue under Pause")
	case <-time.After(100 * time.Millisecond):
	}
	if depth := table.depths()["a"]; depth != 1 {
		t.Fatalf("queue depth %d while the writer is blocked, want the bound (1)", depth)
	}
	// Draining the connection releases the backpressure losslessly.
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 1; i <= 3; i++ {
		m, err := Recv(stream)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if m.Cursor != uint64(i) {
			t.Fatalf("cursor %d, want %d", m.Cursor, i)
		}
	}
	_ = client.SetReadDeadline(time.Time{})
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("enqueue stayed blocked after the queue drained")
	}
	if c := table.snapshot(); c.PauseStalls == 0 || c.DeliveriesDropped != 0 {
		t.Fatalf("counters = %+v, want pause stalls and no drops", c)
	}

	// Reconnect-during-stall: wedge the queue again, then attach a new
	// connection. The swap must unblock the parked enqueue (the old
	// queue dies), and the resume replay must deliver its frame anyway.
	table.enqueue("a", deliverMsg(4))
	wedgeWriter(t, client)
	table.enqueue("a", deliverMsg(5))
	parked := make(chan struct{})
	go func() {
		table.enqueue("a", deliverMsg(6))
		close(parked)
	}()
	time.Sleep(50 * time.Millisecond) // let the enqueue park
	server2, client2 := net.Pipe()
	defer client2.Close()
	if err := table.attach("a", server2, &Message{Type: TypeListenOK}, 3, true); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("reconnect left the paused enqueue parked")
	}
	_ = client.Close()
	if hello := mustRecv(t, client2); hello.Gap != 0 {
		t.Fatalf("resume gap = %d, want 0", hello.Gap)
	}
	seen := make(map[uint64]bool)
	for i := 4; i <= 6; i++ {
		m := mustRecv(t, client2)
		if m.Type != TypeDeliver || seen[m.Cursor] {
			t.Fatalf("replay frame %d: %+v", i, m)
		}
		seen[m.Cursor] = true
	}
	for i := uint64(4); i <= 6; i++ {
		if !seen[i] {
			t.Fatalf("cursor %d never replayed (saw %v)", i, seen)
		}
	}
}

// TestDetachedDeliveriesAccumulate: a client between connections keeps
// its cursor advancing and its ring filling, so a resume after a quiet
// detachment loses nothing.
func TestDetachedDeliveriesAccumulate(t *testing.T) {
	table := newDeliveryTable(4, 16, OverflowDropOldest, -1)
	server, client := net.Pipe()
	if err := table.attach("a", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	if m := mustRecv(t, client); m.Type != TypeListenOK {
		t.Fatal("no hello")
	}
	_ = client.Close()
	table.enqueue("a", deliverMsg(1)) // writer discovers the break here
	for {
		st := table.clients["a"]
		st.mu.Lock()
		detached := st.q == nil
		st.mu.Unlock()
		if detached {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 2; i <= 4; i++ {
		table.enqueue("a", deliverMsg(i))
	}
	server2, client2 := net.Pipe()
	defer client2.Close()
	if err := table.attach("a", server2, &Message{Type: TypeListenOK}, 0, true); err != nil {
		t.Fatal(err)
	}
	if hello := mustRecv(t, client2); hello.Cursor != 4 || hello.Gap != 0 {
		t.Fatalf("resume hello = %+v", hello)
	}
	for i := 1; i <= 4; i++ {
		if m := mustRecv(t, client2); m.Cursor != uint64(i) {
			t.Fatalf("replayed cursor %d, want %d", m.Cursor, i)
		}
	}
}

// TestParseOverflowPolicy round-trips the flag strings.
func TestParseOverflowPolicy(t *testing.T) {
	for _, p := range []OverflowPolicy{OverflowDropOldest, OverflowDisconnect, OverflowPause} {
		got, err := ParseOverflowPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseOverflowPolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if p, err := ParseOverflowPolicy(""); err != nil || p != OverflowDropOldest {
		t.Fatalf("empty policy = %v, %v, want default drop-oldest", p, err)
	}
}

// TestResumeWindowEvictsDetachedState: a client that stays away past
// the resume window has its cursor and ring released — churn cannot
// grow the table forever — and a later return is a fresh listener.
func TestResumeWindowEvictsDetachedState(t *testing.T) {
	table := newDeliveryTable(4, 8, OverflowDropOldest, 50*time.Millisecond)
	defer table.close(10 * time.Millisecond)
	server, client := net.Pipe()
	if err := table.attach("a", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	if m := mustRecv(t, client); m.Type != TypeListenOK {
		t.Fatalf("hello = %+v", m)
	}
	_ = client.Close()
	table.enqueue("a", deliverMsg(1)) // the writer discovers the break and detaches

	deadline := time.Now().Add(5 * time.Second)
	for {
		table.mu.Lock()
		_, alive := table.clients["a"]
		table.mu.Unlock()
		if !alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached state never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Returning after eviction starts over: the ack cursor regresses to
	// zero, which is the client's signal to rebaseline.
	server2, client2 := net.Pipe()
	defer client2.Close()
	if err := table.attach("a", server2, &Message{Type: TypeListenOK}, 1, true); err != nil {
		t.Fatal(err)
	}
	if hello := mustRecv(t, client2); hello.Cursor != 0 {
		t.Fatalf("post-eviction resume cursor = %d, want 0", hello.Cursor)
	}
}

// TestPumpSeversOnLiveCursorJump: frames dropped on a live connection
// under DropOldest show up as a cursor jump; a resumable pump must
// sever instead of riding past the gap, so the owner's next Resume
// (from the pre-gap cursor) recovers the dropped frames.
func TestPumpSeversOnLiveCursorJump(t *testing.T) {
	c, err := NewClient("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	server, client := net.Pipe()
	defer server.Close()
	go func() {
		if _, err := Recv(server); err != nil { // listen
			return
		}
		_ = Send(server, &Message{Type: TypeListenOK})
		for _, cur := range []uint64{1, 2, 5} { // 3 and 4 "dropped"
			_ = Send(server, &Message{Type: TypeDeliver, Cursor: cur})
		}
	}()
	if _, err := c.Resume(bg, client); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.DeliveryDone():
	case <-time.After(5 * time.Second):
		t.Fatal("pump did not sever on the cursor jump")
	}
	if got := c.LastCursor(); got != 2 {
		t.Fatalf("cursor after jump = %d, want 2 (the pre-gap position a Resume must present)", got)
	}
	// The client closed the connection, not just stopped reading.
	_ = server.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := Recv(server); err == nil {
		t.Fatal("connection still open after the jump")
	}
}

// TestResumeAcknowledgesReportedGap: when the resume ack reports
// unrecoverable loss, the client folds it into its baseline so the
// replay stream is contiguous and jump detection does not re-sever on
// the first retained frame.
func TestResumeAcknowledgesReportedGap(t *testing.T) {
	c, err := NewClient("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	server1, client1 := net.Pipe()
	go func() {
		if _, err := Recv(server1); err != nil {
			return
		}
		_ = Send(server1, &Message{Type: TypeListenOK})
		_ = Send(server1, &Message{Type: TypeDeliver, Cursor: 1})
		_ = Send(server1, &Message{Type: TypeDeliver, Cursor: 2})
		_ = server1.Close()
	}()
	if _, err := c.Resume(bg, client1); err != nil {
		t.Fatal(err)
	}
	<-c.DeliveryDone()
	if got := c.LastCursor(); got != 2 {
		t.Fatalf("cursor = %d, want 2", got)
	}

	server2, client2 := net.Pipe()
	defer server2.Close()
	ready := make(chan struct{})
	go func() {
		m, err := Recv(server2)
		if err != nil || !m.Resume || m.Cursor != 2 {
			t.Errorf("resume frame = %+v, %v; want resume at cursor 2", m, err)
			return
		}
		// Cursors 3..5 fell off the ring: report the gap, then replay
		// the retained tail.
		_ = Send(server2, &Message{Type: TypeListenOK, Cursor: 7, Gap: 3})
		_ = Send(server2, &Message{Type: TypeDeliver, Cursor: 6})
		_ = Send(server2, &Message{Type: TypeDeliver, Cursor: 7})
		close(ready)
	}()
	gap, err := c.Resume(bg, client2)
	if err != nil {
		t.Fatal(err)
	}
	if gap != 3 {
		t.Fatalf("Resume gap = %d, want 3", gap)
	}
	<-ready
	deadline := time.Now().Add(5 * time.Second)
	for c.LastCursor() != 7 {
		select {
		case <-c.DeliveryDone():
			t.Fatalf("pump severed on the post-gap replay (cursor %d)", c.LastCursor())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("cursor = %d, want 7 (acknowledged gap + replay)", c.LastCursor())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDisabledReplayRing: a negative ring bound turns retention off —
// cursors still stamp and resumes still work, but nothing replays and
// the whole detached span is reported as a gap.
func TestDisabledReplayRing(t *testing.T) {
	table := newDeliveryTable(4, -1, OverflowDropOldest, -1)
	server, client := net.Pipe()
	if err := table.attach("a", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	if m := mustRecv(t, client); m.Type != TypeListenOK {
		t.Fatalf("hello = %+v", m)
	}
	for i := 1; i <= 2; i++ {
		table.enqueue("a", deliverMsg(i))
		if m := mustRecv(t, client); m.Cursor != uint64(i) {
			t.Fatalf("live cursor %d, want %d", m.Cursor, i)
		}
	}
	_ = client.Close()
	table.enqueue("a", deliverMsg(3)) // detaches; nothing retained

	server2, client2 := net.Pipe()
	defer client2.Close()
	if err := table.attach("a", server2, &Message{Type: TypeListenOK}, 2, true); err != nil {
		t.Fatal(err)
	}
	hello := mustRecv(t, client2)
	if hello.Cursor != 3 || hello.Gap != 1 {
		t.Fatalf("resume hello = cursor %d gap %d, want cursor 3 gap 1", hello.Cursor, hello.Gap)
	}
	// Live delivery continues the numbering; no replay preceded it.
	table.enqueue("a", deliverMsg(4))
	if m := mustRecv(t, client2); m.Cursor != 4 {
		t.Fatalf("post-resume cursor = %d, want 4", m.Cursor)
	}
	if got := table.snapshot().DeliveriesReplayed; got != 0 {
		t.Fatalf("DeliveriesReplayed = %d with the ring disabled", got)
	}
}

// TestDeliverRecordsAcrossSlices drives the records path from two real
// slices to the clients' rings. Client a and client q, which never
// listened, subscribe with identical bands, so they share nodes, on
// both slices; client c listens too; and one subscription of a sits on
// both slices under one ID, as in a migration's two-copy window. A
// message of 100 items (two walk chunks, with undecodable items) is
// matched as a group of three jobs — split per job across the chunk
// boundary — and as three lone jobs. Either way every listening
// client receives, in item order, one delivery per item it matched,
// its SubIDs in slice order and then walk order exactly as matching
// the item alone on each slice gives them; the duplicate is named
// twice outside the window and once inside it (dedup); and nothing is
// built for q.
func TestDeliverRecordsAcrossSlices(t *testing.T) {
	const a, q, c = 0, 1, 2
	const dupID = 1 << 20
	schema := pubsub.NewSchema()
	var parts []scheme.Slice
	for range 2 {
		e, err := core.NewEngine(simmem.NewPlainAccessor(simmem.DefaultCost()), schema, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, scheme.NewPlainSlice(e, schema))
	}
	hub, err := streamhub.NewFromSlices(schema, parts)
	if err != nil {
		t.Fatal(err)
	}
	band := func(lo, hi float64) pubsub.SubscriptionSpec {
		return pubsub.SubscriptionSpec{Predicates: []pubsub.Predicate{{Attr: "price", Op: pubsub.OpBetween, Value: pubsub.Float(lo), Hi: pubsub.Float(hi)}}}
	}
	register := func(slice int, ref uint32, id uint64, sp pubsub.SubscriptionSpec) {
		enc, err := pubsub.EncodeSubscriptionSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := parts[slice].RegisterEncodedAssigned(enc, ref, id); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 12; k++ {
		sp := band(float64(k*8), float64(k*8+30))
		for _, ref := range []uint32{q, a, c} { // q's is the node's own subscriber
			if ref != c || k%3 == 0 {
				register(k%2, ref, uint64(10*k+int(ref)+1), sp)
			}
		}
	}
	register(0, a, dupID, band(20, 60))
	register(1, a, dupID, band(20, 60))

	rng := rand.New(rand.NewSource(5))
	blobs := make([][]byte, 100)
	for i := range blobs {
		if i%17 == 9 {
			blobs[i] = []byte{} // undecodable: dropped
			continue
		}
		enc, err := pubsub.EncodeEventSpec(pubsub.EventSpec{Attrs: []pubsub.NamedValue{{Name: "price", Value: pubsub.Float(float64(rng.Intn(120)))}}})
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = enc
	}

	type delivery struct {
		item   byte
		subIDs []uint64
	}
	want := map[string][]delivery{}
	doubled := false
	for _, dedup := range []bool{false, true} {
		want["a"], want["c"] = nil, nil
		for i, blob := range blobs {
			ids := map[uint32][]uint64{}
			for p := range parts {
				recs, err := hub.MatchRecordsIn(p, [][]byte{blob}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					if dedup && slices.Contains(ids[rec.ClientRef], rec.SubID) {
						continue
					}
					ids[rec.ClientRef] = append(ids[rec.ClientRef], rec.SubID)
				}
			}
			for name, ref := range map[string]uint32{"a": a, "c": c} {
				if len(ids[ref]) > 0 {
					want[name] = append(want[name], delivery{byte(i), ids[ref]})
				}
			}
			if i := slices.Index(ids[a], dupID); !dedup && i >= 0 && slices.Contains(ids[a][i+1:], dupID) {
				doubled = true
			}
		}
		if len(want["a"]) < 50 || len(want["c"]) == 0 || !doubled {
			t.Fatalf("the corpus needs a and c matched often and the duplicate matched on both slices: %d, %d deliveries, doubled %v", len(want["a"]), len(want["c"]), doubled)
		}

		for _, grouped := range []bool{true, false} {
			table := newDeliveryTable(4, 1024, OverflowDropOldest, -1)
			for _, name := range []string{"a", "c"} {
				table.clients[name] = &clientState{name: name}
			}
			r := &Router{hub: hub, backend: &scheme.Backend{}, delivery: table, refName: []string{"a", "q", "c"}}
			var jobs []*matchJob
			lo := 0
			for _, n := range []int{1, 39, 60} {
				job := &matchJob{blobs: blobs[lo : lo+n], perPart: make([][]core.Record, len(parts))}
				for i := lo; i < lo+n; i++ {
					job.payloads = append(job.payloads, []byte{byte(i)})
				}
				jobs, lo = append(jobs, job), lo+n
			}
			for p := range parts {
				pt := &partition{idx: p}
				if grouped {
					r.matchSliceBatch(pt, jobs, nil)
					continue
				}
				for _, job := range jobs {
					r.matchSliceBatch(pt, []*matchJob{job}, nil)
				}
			}
			var fan fanout
			for _, job := range jobs {
				r.deliver(&fan, job.perPart, job.payloads, 3, dedup)
			}
			for _, name := range []string{"a", "c"} {
				ring := table.clients[name].ring
				if len(ring) != len(want[name]) {
					t.Fatalf("dedup %v grouped %v: %s received %d deliveries, want %d", dedup, grouped, name, len(ring), len(want[name]))
				}
				for k, m := range ring {
					w := want[name][k]
					if m.Cursor != uint64(k+1) || m.Epoch != 3 || len(m.Payload) != 1 || m.Payload[0] != w.item || !slices.Equal(m.SubIDs, w.subIDs) {
						t.Fatalf("dedup %v grouped %v: %s's delivery %d = cursor %d item %v SubIDs %v; want item %d SubIDs %v",
							dedup, grouped, name, k, m.Cursor, m.Payload, m.SubIDs, w.item, w.subIDs)
					}
				}
			}
			if _, built := table.clients["q"]; built {
				t.Fatalf("dedup %v grouped %v: delivery state built for a client that never listened", dedup, grouped)
			}
			if slices.ContainsFunc(fan.slot, func(s int32) bool { return s != 0 }) {
				t.Fatalf("dedup %v grouped %v: grouping scratch left at %v", dedup, grouped, fan.slot)
			}
			table.close(time.Second)
		}
	}
}
