package broker

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// refJSONRoundTrip is the reference the binary data-frame codec is
// held to: the encoding every message travelled in before data frames
// went binary, kept here the way the memory model keeps refLLC. A
// message marshalled by encoding/json and parsed back is what the old
// wire delivered for it.
func refJSONRoundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	out := new(Message)
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameMessage compares field by field, byte fields with bytes.Equal:
// JSON and the binary codec may disagree on whether an empty field
// decodes to nil or to an empty slice, and no consumer tells them
// apart.
func sameMessage(a, b *Message) bool {
	if a.Type != b.Type || a.Scheme != b.Scheme || a.Epoch != b.Epoch || a.Cursor != b.Cursor ||
		a.ClientID != b.ClientID || a.SubID != b.SubID || a.Resume != b.Resume || a.Gap != b.Gap ||
		!bytes.Equal(a.Blob, b.Blob) || !bytes.Equal(a.Payload, b.Payload) || !bytes.Equal(a.Tag, b.Tag) ||
		len(a.SubIDs) != len(b.SubIDs) || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.SubIDs {
		if a.SubIDs[i] != b.SubIDs[i] {
			return false
		}
	}
	for i := range a.Items {
		if !bytes.Equal(a.Items[i].Blob, b.Items[i].Blob) || !bytes.Equal(a.Items[i].Payload, b.Items[i].Payload) {
			return false
		}
	}
	return true
}

// TestDataFramesMatchJSONReference: for the same input, each of the
// six data types decodes from the binary codec to a Message
// field-equal to its round trip through encoding/json.
func TestDataFramesMatchJSONReference(t *testing.T) {
	kib := bytes.Repeat([]byte{0xC3}, 1024)
	many := make([]uint64, 300)
	for i := range many {
		many[i] = uint64(i) << 40
	}
	for name, m := range map[string]*Message{
		"publish":               {Type: TypePublish, Scheme: "sgx-plain", Blob: []byte("header"), Payload: kib, Epoch: 7},
		"publish/empty payload": {Type: TypePublish, Scheme: "aspe", Blob: []byte{1}, Epoch: 1},
		"publish/max epoch":     {Type: TypePublish, Blob: []byte{1}, Payload: []byte{2}, Epoch: math.MaxUint64},
		"batch/empty items":     {Type: TypePublishBatch, Scheme: "sgx-plain", Epoch: 2},
		"batch/items": {Type: TypePublishBatch, Scheme: "sgx-plain", Epoch: 2, Items: []BatchItem{
			{Blob: []byte("h0"), Payload: kib}, {Blob: []byte("h1")}, {Payload: []byte("p2")}, {},
		}},
		"deliver/no sub-ids":   {Type: TypeDeliver, Payload: []byte("p"), Epoch: 1, Cursor: 1},
		"deliver/one sub-id":   {Type: TypeDeliver, Payload: kib, Epoch: 3, Cursor: 12345, SubIDs: []uint64{9}},
		"deliver/many sub-ids": {Type: TypeDeliver, Payload: []byte("p"), Epoch: 3, Cursor: math.MaxUint64, SubIDs: many},
		"deliver/empty":        {Type: TypeDeliver},
		"fwd-pub":              {Type: TypeFwdPub, Blob: kib},
		"fwd-pub/empty":        {Type: TypeFwdPub},
		"register": {Type: TypeRegisterBatch, ClientID: "alice", Scheme: "aspe", Tag: []byte("tag"), Items: []BatchItem{
			{Blob: []byte{1, 2, 3}}, {}, {Blob: kib},
		}},
		"register/empty":       {Type: TypeRegisterBatch},
		"register-ok":          {Type: TypeRegisterBatchOK, SubIDs: many},
		"register-ok/no items": {Type: TypeRegisterBatchOK},
	} {
		var wire bytes.Buffer
		if err := Send(&wire, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if body := wire.Bytes()[4:]; body[0] == '{' {
			t.Fatalf("%s: travelled as JSON", name)
		}
		got, err := Recv(&wire)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refJSONRoundTrip(t, m); !sameMessage(got, want) {
			t.Fatalf("%s: binary codec and JSON reference disagree:\n binary %+v\n json   %+v", name, got, want)
		}
	}
	// Control frames still are JSON, byte-identical to json.Marshal.
	ctl := &Message{Type: TypeRemove, ClientID: "alice", SubID: 1 << 56}
	var wire bytes.Buffer
	if err := Send(&wire, ctl); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ctl)
	if !bytes.Equal(wire.Bytes()[4:], want) {
		t.Fatalf("control frame body %q, want json.Marshal's %q", wire.Bytes()[4:], want)
	}
}

// TestDataFrameAllocs guards the per-frame allocation budget of the
// hot frames: the frame, the Message, and one slice or string. The
// budget counts on the send buffer pool, which the race detector
// empties at random, so it is not checked under -race.
func TestDataFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects under the race detector")
	}
	payload := bytes.Repeat([]byte{1}, 64)
	for name, m := range map[string]*Message{
		"deliver":        {Type: TypeDeliver, Payload: payload, Epoch: 1, Cursor: 42, SubIDs: []uint64{7, 8}},
		"1-item publish": {Type: TypePublish, Scheme: "sgx-plain", Blob: payload, Payload: payload, Epoch: 1},
	} {
		var wire bytes.Buffer
		wire.Grow(1024)
		allocs := testing.AllocsPerRun(200, func() {
			wire.Reset()
			if err := Send(&wire, m); err != nil {
				t.Fatal(err)
			}
			if _, err := Recv(&wire); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("Send+Recv of a %s frame: %.0f allocs, want ≤ 3", name, allocs)
		}
	}
}

// countingConn counts the Read and Write calls that reach the
// connection — the syscalls, on a socket.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// tcpPair returns the two ends of a real loopback TCP connection.
func tcpPair(t *testing.T) (server, client net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close(); _ = client.Close() })
	return server, client
}

// waitQueueDrained blocks until name's live queue is empty: every
// enqueued frame has been taken by the writer.
func waitQueueDrained(t *testing.T, table *deliveryTable, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for table.depths()[name] > 0 {
		if time.Now().After(deadline) {
			t.Fatal("delivery queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSendIsOneWrite: a frame — control or data — is one Write, and a
// queue-fed burst is one Write for everything that was queued.
func TestSendIsOneWrite(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	cc := &countingConn{Conn: server}
	const frames = 50
	got := make(chan uint64, frames+2)
	go func() {
		for {
			m, err := Recv(client)
			if err != nil {
				close(got)
				return
			}
			got <- m.Cursor
		}
	}()
	for _, m := range []*Message{{Type: TypeListenOK, Cursor: 1}, {Type: TypeDeliver, Cursor: 2, Payload: []byte("p")}} {
		if err := Send(cc, m); err != nil {
			t.Fatal(err)
		}
	}
	if w := cc.writes.Load(); w != 2 {
		t.Fatalf("2 frames took %d writes", w)
	}
	ch := make(chan *Message, frames)
	for i := 1; i < frames; i++ {
		ch <- &Message{Type: TypeDeliver, Cursor: uint64(100 + i)}
	}
	sent, err := sendBurst(cc, &Message{Type: TypeDeliver, Cursor: 100}, ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != frames || len(ch) != 0 {
		t.Fatalf("burst took %d frames and left %d queued, want %d and 0", len(sent), len(ch), frames)
	}
	if w := cc.writes.Load(); w != 3 {
		t.Fatalf("a %d-frame burst took %d writes, want 1", frames, w-2)
	}
	want := append([]uint64{1, 2}, make([]uint64, frames)...)
	for i := 0; i < frames; i++ {
		want[2+i] = uint64(100 + i)
	}
	for i, c := range want {
		if g := <-got; g != c {
			t.Fatalf("frame %d arrived with cursor %d, want %d", i, g, c)
		}
	}
	// Past burstMax a burst stops taking: the rest stays queued.
	big := bytes.Repeat([]byte{9}, burstMax/4)
	for i := 0; i < 8; i++ {
		ch <- &Message{Type: TypeDeliver, Payload: big}
	}
	go func() {
		for range got {
		}
	}()
	if sent, err = sendBurst(cc, &Message{Type: TypeDeliver, Payload: big}, ch, sent); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 4 || len(ch) != 5 {
		t.Fatalf("bounded burst took %d frames and left %d queued, want 4 and 5", len(sent), len(ch))
	}
}

// TestBurstDeliveryOverTCP: 1,000 deliveries enqueued on a real
// loopback connection arrive in cursor order, and the client's
// buffered reader collects them in far fewer reads than frames.
func TestBurstDeliveryOverTCP(t *testing.T) {
	const n = 1000
	table := newDeliveryTable(2*n, 2*n, OverflowDropOldest, -1)
	defer table.close(time.Second)
	server, rawClient := tcpPair(t)
	if err := table.attach("a", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		table.enqueue("a", deliverMsg(i))
	}
	waitQueueDrained(t, table, "a")
	cc := &countingConn{Conn: rawClient}
	client := newBufferedConn(cc)
	if m := mustRecv(t, client); m.Type != TypeListenOK {
		t.Fatalf("hello = %+v", m)
	}
	for i := 1; i <= n; i++ {
		m := mustRecv(t, client)
		if m.Cursor != uint64(i) || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("delivery %d arrived as cursor %d payload %v", i, m.Cursor, m.Payload)
		}
	}
	if reads := cc.reads.Load(); reads >= n {
		t.Fatalf("%d deliveries took %d reads, want fewer", n, reads)
	} else {
		t.Logf("%d deliveries in %d reads", n, reads)
	}
	if lat := table.latencySnapshot(); lat.Total.Count != n {
		t.Fatalf("latency recorded for %d frames, want one per written frame (%d)", lat.Total.Count, n)
	}
}

// TestSeveredMidBurstResumes: a connection cut while the client holds
// a half-consumed burst loses nothing silently — the frames of the
// burst are in the replay ring like any others, so a resume from the
// last cursor the client processed accounts for every delivery:
// delivered + gaps == expected.
func TestSeveredMidBurstResumes(t *testing.T) {
	const (
		n       = 1000
		ringLen = 300
		seen    = 100
	)
	table := newDeliveryTable(n, ringLen, OverflowDropOldest, -1)
	defer table.close(time.Second)
	server, rawClient := tcpPair(t)
	if err := table.attach("a", server, &Message{Type: TypeListenOK}, 0, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n/2; i++ {
		table.enqueue("a", deliverMsg(i))
	}
	waitQueueDrained(t, table, "a")
	client := newBufferedConn(rawClient)
	if m := mustRecv(t, client); m.Type != TypeListenOK {
		t.Fatalf("hello = %+v", m)
	}
	delivered := make(map[uint64]bool)
	for i := 1; i <= seen; i++ {
		delivered[mustRecv(t, client).Cursor] = true
	}
	// Sever with the rest of the burst unread — some of it already in
	// the client's buffer, the rest in the socket — and keep publishing
	// into the dead connection and then into the client's absence.
	_ = rawClient.Close()
	for i := n/2 + 1; i <= n; i++ {
		table.enqueue("a", deliverMsg(i))
	}
	server2, rawClient2 := tcpPair(t)
	if err := table.attach("a", server2, &Message{Type: TypeListenOK}, seen, true); err != nil {
		t.Fatal(err)
	}
	client2 := newBufferedConn(rawClient2)
	hello := mustRecv(t, client2)
	if hello.Type != TypeListenOK || hello.Cursor != n {
		t.Fatalf("resume hello = %+v", hello)
	}
	last := uint64(seen) + hello.Gap
	for last < n {
		m := mustRecv(t, client2)
		if m.Cursor != last+1 {
			t.Fatalf("replay out of order: cursor %d after %d", m.Cursor, last)
		}
		last = m.Cursor
		delivered[m.Cursor] = true
	}
	if got := uint64(len(delivered)) + hello.Gap; got != n {
		t.Fatalf("delivered %d + gaps %d = %d, want %d", len(delivered), hello.Gap, got, n)
	}
	if want := uint64(n - ringLen - seen); hello.Gap != want {
		t.Fatalf("gap = %d, want %d (ring of %d behind %d seen)", hello.Gap, want, ringLen, seen)
	}
}
