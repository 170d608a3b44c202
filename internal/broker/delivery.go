// The router's delivery layer: step ⑥ decoupled from matching. Every
// listening client owns a bounded outbound queue drained by a
// dedicated writer goroutine, so a blocked or broken listener never
// blocks matching or deliveries to other clients — the matcher's only
// interaction with a client is an enqueue that never waits on a
// socket.
//
// Delivery is resumable: each client has a durable per-router cursor
// (stamped on every deliver frame) and a bounded replay ring of its
// most recent deliveries, both of which outlive any single
// connection. A listener that reconnects and presents its last-seen
// cursor has the gap replayed from the ring instead of losing
// whatever was buffered when its previous connection died; deliveries
// evicted from the ring before the client came back are reported as a
// gap on the listen ack, so loss is observable rather than silent.
// What happens when the live queue overflows is the OverflowPolicy.

package broker

import (
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scbr/internal/core"
	"scbr/internal/hdrhist"
)

// DefaultDeliveryQueueLen is the per-client outbound queue bound used
// when RouterConfig.DeliveryQueueLen is zero.
const DefaultDeliveryQueueLen = 256

// DefaultReplayRingLen is the per-client replay ring bound used when
// RouterConfig.ReplayRingLen is zero. The ring retains the client's
// most recent stamped deliveries for cursor-based replay, so it should
// cover at least one delivery queue plus the burst expected during a
// reconnect window.
const DefaultReplayRingLen = 512

// DefaultDrainTimeout bounds the shutdown drain when
// RouterConfig.DrainTimeout is zero: Close lets the per-client
// writers flush already-matched deliveries for at most this long
// before severing the connections.
const DefaultDrainTimeout = 2 * time.Second

// DefaultResumeWindow is how long a detached client's delivery state
// (cursor + replay ring) is retained for resumption when
// RouterConfig.ResumeWindow is zero. Without a bound, client churn
// would grow the table — and the payloads its rings pin — forever.
const DefaultResumeWindow = 5 * time.Minute

// OverflowPolicy selects what the router does when a listening
// client's bounded delivery queue is full — the slow-consumer policy.
type OverflowPolicy int

const (
	// OverflowDropOldest (the default) evicts the oldest queued frame
	// to make room. The client stays connected and observes the loss as
	// a cursor jump; the evicted frames remain in the replay ring, so a
	// reconnect with the last-seen cursor recovers them — at-least-once
	// within the ring's reach.
	OverflowDropOldest OverflowPolicy = iota
	// OverflowDisconnect severs the client's connection, the legacy
	// policy: a client that stops draining its socket is cut loose
	// rather than allowed to stall the data plane. Deliveries keep
	// accumulating cursors (and ring slots) while it is gone, so a
	// resume still recovers everything the ring retained.
	OverflowDisconnect
	// OverflowPause blocks the enqueue until the writer frees a slot,
	// exerting backpressure into the delivery merger and, once the
	// pipeline behind it fills, the publishing connections — never into
	// the enclave matchers, which have already finished by the time
	// delivery runs.
	// Lossless while the connection lives, at the cost of one stalled
	// client throttling the publication stream feeding it; a frame
	// parked when the connection dies is abandoned like any other
	// in-flight frame and recovered through the replay ring on resume.
	//
	// The bound: the writer moves frames from the queue to the socket
	// a burst at a time, and a burst takes only what is queued when it
	// starts (at most burstMax bytes of it). While a write is blocked
	// nothing more leaves the queue, so the queue bound holds: at most
	// DeliveryQueueLen frames queued plus one burst in the blocked
	// write are accepted and unwritten — everything past that waits in
	// the enqueue. All of them are in the replay ring either way.
	OverflowPause
)

// String names the policy for flags and logs.
func (p OverflowPolicy) String() string {
	switch p {
	case OverflowDisconnect:
		return "disconnect"
	case OverflowPause:
		return "pause"
	default:
		return "drop-oldest"
	}
}

// ParseOverflowPolicy maps a flag string onto a policy.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "drop-oldest", "":
		return OverflowDropOldest, nil
	case "disconnect":
		return OverflowDisconnect, nil
	case "pause":
		return OverflowPause, nil
	}
	return 0, fmt.Errorf("broker: unknown overflow policy %q (want drop-oldest, disconnect, or pause)", s)
}

// DeliveryCounters observes the delivery layer's loss and recovery
// activity. All counts are cumulative since router start.
type DeliveryCounters struct {
	// Enqueued counts deliveries handed to the layer (one per matched
	// client per publication).
	Enqueued uint64 `json:"enqueued"`
	// DeliveriesDropped counts frames evicted from a live outbound
	// queue under OverflowDropOldest — losses on the current
	// connection, still recoverable from the replay ring on resume.
	DeliveriesDropped uint64 `json:"deliveries_dropped"`
	// SlowConsumerDisconnects counts connections severed under
	// OverflowDisconnect.
	SlowConsumerDisconnects uint64 `json:"slow_consumer_disconnects"`
	// DeliveriesReplayed counts frames re-sent from replay rings to
	// resuming listeners.
	DeliveriesReplayed uint64 `json:"deliveries_replayed"`
	// PauseStalls counts enqueues that blocked under OverflowPause.
	PauseStalls uint64 `json:"pause_stalls"`
	// ReplayGapTotal sums the gaps reported to resuming listeners —
	// deliveries that had already left the replay ring and are
	// unrecoverable.
	ReplayGapTotal uint64 `json:"replay_gap_total"`
}

// deliveryTable owns the router's client delivery state: the durable
// per-client cursors and replay rings, and the live per-connection
// queues.
type deliveryTable struct {
	queueLen     int
	ringLen      int
	policy       OverflowPolicy
	resumeWindow time.Duration // ≤ 0: retain detached state forever

	mu      sync.Mutex
	clients map[string]*clientState
	closed  bool
	wg      sync.WaitGroup

	sweepQuit chan struct{}
	sweepDone chan struct{}

	enqueued    atomic.Uint64
	dropped     atomic.Uint64
	disconnects atomic.Uint64
	replayed    atomic.Uint64
	pauseStalls atomic.Uint64
	gapTotal    atomic.Uint64

	// latency aggregates the enqueue→write latency of every delivered
	// frame across all clients; each clientState keeps its own.
	latency *hdrhist.Hist
}

// clientState is one client's durable delivery state. It outlives any
// single connection — that is what makes reconnection resumable.
type clientState struct {
	name string

	// sendMu serialises enqueues for this client, so cursor order
	// equals queue order even when a Pause-policy enqueue blocks.
	// attach never takes it: a reconnect always gets through, however
	// wedged the previous connection is.
	sendMu sync.Mutex

	mu     sync.Mutex
	cursor uint64 // last stamped delivery sequence (first delivery is 1)
	// ring is the replay buffer: a circular window over the most
	// recent stamped deliveries. It grows to the table's ring bound
	// and then overwrites in place — eviction is O(1), not a shift.
	ring       []*Message
	head       int          // index of the oldest retained frame
	q          *clientQueue // live connection, nil while detached
	detachedAt time.Time    // when q last became nil (resume-window clock)

	// lat records this client's enqueue→write latencies (live frames
	// only; replays are not re-recorded).
	lat *hdrhist.Hist
}

// ringPushLocked retains m in the replay ring, evicting the oldest
// frame once the bound is reached. Caller holds st.mu.
func (st *clientState) ringPushLocked(m *Message, bound int) {
	if len(st.ring) < bound {
		st.ring = append(st.ring, m)
		return
	}
	st.ring[st.head] = m
	st.head = (st.head + 1) % len(st.ring)
}

// replayAfterLocked returns the retained deliveries past lastSeen (in
// cursor order) and the count of deliveries lost to ring eviction
// that the listener can no longer recover. Caller holds st.mu.
func (st *clientState) replayAfterLocked(lastSeen uint64) ([]*Message, uint64) {
	if lastSeen > st.cursor {
		lastSeen = st.cursor // bogus future cursor: clamp, replay nothing
	}
	oldest := st.cursor + 1 // empty ring: nothing retained
	if len(st.ring) > 0 {
		oldest = st.ring[st.head].Cursor
	}
	var gap uint64
	if lastSeen+1 < oldest {
		gap = oldest - lastSeen - 1
	}
	var replay []*Message
	for i := 0; i < len(st.ring); i++ {
		m := st.ring[(st.head+i)%len(st.ring)]
		if m.Cursor > lastSeen {
			replay = append(replay, m)
		}
	}
	return replay, gap
}

// clientQueue is one client's live outbound delivery channel: the
// bounded queue and the connection its writer drains onto. pending
// carries the listen ack plus any cursor replay, written before the
// channel is drained so they are guaranteed to be the first frames on
// the wire; it is filled once by attach, sized to what it holds, and
// only ever drained.
type clientQueue struct {
	st      *clientState
	conn    net.Conn
	pending chan *Message
	ch      chan *Message
	burst   []*Message // the writer's storage for the frames of one burst
	quit    chan struct{}
	drain   chan struct{}
	once    sync.Once
	dOnce   sync.Once
}

// stop severs the queue: the writer unwinds (a write in flight fails
// when the conn closes) and buffered deliveries are abandoned — they
// remain in the replay ring for a later resume.
func (q *clientQueue) stop() {
	q.once.Do(func() {
		close(q.quit)
		_ = q.conn.Close()
	})
}

// beginDrain tells the writer to flush whatever is buffered and then
// close the connection — the graceful half of shutdown. Producers
// must already be stopped, so the buffer can only shrink.
func (q *clientQueue) beginDrain() {
	q.dOnce.Do(func() { close(q.drain) })
}

func newDeliveryTable(queueLen, ringLen int, policy OverflowPolicy, resumeWindow time.Duration) *deliveryTable {
	if queueLen <= 0 {
		queueLen = DefaultDeliveryQueueLen
	}
	if ringLen == 0 {
		ringLen = DefaultReplayRingLen
	} else if ringLen < 0 {
		ringLen = 0 // replay disabled: cursors still stamp, nothing is retained
	}
	if resumeWindow == 0 {
		resumeWindow = DefaultResumeWindow
	}
	t := &deliveryTable{
		queueLen:     queueLen,
		ringLen:      ringLen,
		policy:       policy,
		resumeWindow: resumeWindow,
		clients:      make(map[string]*clientState),
		sweepQuit:    make(chan struct{}),
		sweepDone:    make(chan struct{}),
		latency:      hdrhist.New(),
	}
	if resumeWindow > 0 {
		go t.sweeper()
	} else {
		close(t.sweepDone)
	}
	return t
}

// sweeper bounds the table in time: a client detached for longer than
// the resume window has its state — cursor and the payloads its ring
// pins — released, so client churn cannot grow the router without
// bound. A client resuming after eviction is a fresh listener whose
// ack cursor restarts at zero (the client rebaselines on the
// regression).
func (t *deliveryTable) sweeper() {
	defer close(t.sweepDone)
	period := t.resumeWindow / 4
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	if period < time.Millisecond {
		period = time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-t.sweepQuit:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-t.resumeWindow)
		t.mu.Lock()
		for name, st := range t.clients {
			st.mu.Lock()
			expired := st.q == nil && !st.detachedAt.IsZero() && st.detachedAt.Before(cutoff)
			st.mu.Unlock()
			if expired {
				delete(t.clients, name)
			}
		}
		t.mu.Unlock()
	}
}

// attach binds conn as name's delivery channel, replacing (and
// severing) any previous one. hello is stamped with the client's
// current cursor and sent first; when the listener resumes (presenting
// its last-seen cursor), the retained gap is queued for replay behind
// the hello and the unrecoverable remainder reported in hello.Gap.
// The whole swap runs under the table lock, so an attach and a
// concurrent close always agree on who owns the connection: a closed
// table closes conn before returning ErrClosed (the write side
// belonged to the delivery layer from the listen frame on — leaving
// it open would leak the connection when a listener races
// Router.Close).
func (t *deliveryTable) attach(name string, conn net.Conn, hello *Message, lastSeen uint64, resume bool) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = conn.Close()
		return ErrClosed
	}
	st := t.clients[name]
	if st == nil {
		st = &clientState{name: name, lat: hdrhist.New()}
		t.clients[name] = st
	}
	q := &clientQueue{
		st:    st,
		conn:  conn,
		ch:    make(chan *Message, t.queueLen),
		quit:  make(chan struct{}),
		drain: make(chan struct{}),
	}
	st.mu.Lock()
	old := st.q
	hello.Cursor = st.cursor
	var replay []*Message
	if resume {
		replay, hello.Gap = st.replayAfterLocked(lastSeen)
		t.replayed.Add(uint64(len(replay)))
		t.gapTotal.Add(hello.Gap)
	}
	q.pending = make(chan *Message, 1+len(replay))
	q.pending <- hello
	for _, m := range replay {
		q.pending <- m
	}
	st.q = q
	st.detachedAt = time.Time{}
	st.mu.Unlock()
	t.wg.Add(1)
	t.mu.Unlock()
	if old != nil {
		old.stop()
	}
	go t.writer(q)
	return nil
}

// client returns name's delivery state, nil when the client has never
// listened here: it has nothing to resume onto, so nothing is built or
// enqueued for it.
func (t *deliveryTable) client(name string) *clientState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clients[name]
}

// enqueueTo stamps one delivery with st's next cursor, retains it in
// the replay ring, and offers it to the live queue. It never blocks
// on a socket; whether it may wait for queue space at all is the
// overflow policy. m must be owned by the caller (deliver builds one
// Message per target client) — the cursor stamp mutates it.
func (t *deliveryTable) enqueueTo(st *clientState, m *Message) {
	st.sendMu.Lock()
	defer st.sendMu.Unlock()
	m.enqueuedAt = time.Now()
	st.mu.Lock()
	st.cursor++
	m.Cursor = st.cursor
	if t.ringLen > 0 {
		st.ringPushLocked(m, t.ringLen)
	}
	q := st.q
	st.mu.Unlock()
	t.enqueued.Add(1)
	if q == nil {
		return // detached: retained in the ring for a later resume
	}
	select {
	case q.ch <- m:
		return
	default:
	}
	switch t.policy {
	case OverflowDisconnect:
		t.disconnects.Add(1)
		t.detach(q)
	case OverflowPause:
		t.pauseStalls.Add(1)
		select {
		case q.ch <- m:
		case <-q.quit:
			// The queue died while we waited (listener broke, reconnect
			// replaced it, shutdown): the ring retains m for replay.
		}
	default: // OverflowDropOldest
		for {
			select {
			case q.ch <- m:
				return
			default:
			}
			select {
			case <-q.ch:
				t.dropped.Add(1)
			default:
			}
			select {
			case <-q.quit:
				return // severed mid-overflow: the ring retains m
			default:
			}
		}
	}
}

// detach severs one live queue and clears it from its client state
// (unless a newer queue already replaced it). The client's cursor and
// ring survive for resumption.
func (t *deliveryTable) detach(q *clientQueue) {
	st := q.st
	st.mu.Lock()
	if st.q == q {
		st.q = nil
		st.detachedAt = time.Now()
	}
	st.mu.Unlock()
	q.stop()
}

// writer drains one client's queue onto its connection. It is the
// only goroutine writing this conn, so frames never interleave; the
// pending frames (listen ack, then any replay) go first. Frames leave
// in bursts (sendBurst): whatever is already queued behind the frame
// the writer took rides the same Write. A burst whose write fails
// detaches the queue once; its frames — like everything enqueued —
// are in the replay ring for the next resume.
func (t *deliveryTable) writer(q *clientQueue) {
	defer t.wg.Done()
	for len(q.pending) > 0 {
		select {
		case <-q.quit:
			return
		default:
		}
		if !t.writeBurst(q, <-q.pending, q.pending, false) {
			return
		}
	}
	for {
		// quit always wins over buffered work: a forced stop (drain
		// deadline, replacement by a reconnect) must not be outraced by
		// a full queue.
		select {
		case <-q.quit:
			return
		default:
		}
		select {
		case <-q.quit:
			return
		case m := <-q.ch:
			if !t.writeBurst(q, m, q.ch, true) {
				return
			}
		case <-q.drain:
			// Shutdown: flush what is already buffered, then close the
			// connection. Producers are gone, so this terminates.
			for {
				select {
				case <-q.quit:
					return
				case m := <-q.ch:
					if !t.writeBurst(q, m, q.ch, true) {
						return
					}
				default:
					q.stop()
					return
				}
			}
		}
	}
}

// writeBurst puts m and what is queued behind it on ch on q's
// connection in one Write, detaching the queue if that fails. Live
// frames have their enqueue→write latency recorded, each its own, once
// the burst's write is out. Only q's writer calls it.
func (t *deliveryTable) writeBurst(q *clientQueue, m *Message, ch <-chan *Message, live bool) bool {
	var err error
	if q.burst, err = sendBurst(q.conn, m, ch, q.burst); err != nil {
		// A broken listener must not block the others.
		t.detach(q)
		return false
	}
	if live {
		for _, sent := range q.burst {
			t.recordLatency(q.st, sent)
		}
	}
	return true
}

// recordLatency records one delivered frame's enqueue→write span into
// the client's and the table's histograms. Replayed frames travel via
// q.pending, not the live queue, so they are never recorded — their
// stamp describes the enqueue of a previous connection's life.
func (t *deliveryTable) recordLatency(st *clientState, m *Message) {
	if m.enqueuedAt.IsZero() {
		return
	}
	d := time.Since(m.enqueuedAt)
	st.lat.RecordDuration(d)
	t.latency.RecordDuration(d)
}

// LatencyQuantiles summarises one delivery-latency histogram as fixed
// percentiles, in nanoseconds.
type LatencyQuantiles struct {
	Count uint64 `json:"count"`
	P50   int64  `json:"p50_ns"`
	P95   int64  `json:"p95_ns"`
	P99   int64  `json:"p99_ns"`
	Max   int64  `json:"max_ns"`
}

// quantilesOf extracts the fixed reporting percentiles.
func quantilesOf(s *hdrhist.Snapshot) LatencyQuantiles {
	return LatencyQuantiles{
		Count: s.N,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}

// DeliveryLatency is the enqueue→write latency surface the router
// exposes: how long delivered frames waited between the matcher's
// enqueue and the moment the per-client writer put them on the wire.
type DeliveryLatency struct {
	Total     LatencyQuantiles            `json:"total"`
	PerClient map[string]LatencyQuantiles `json:"per_client,omitempty"`
}

// latencySnapshot summarises the per-client and aggregate histograms.
func (t *deliveryTable) latencySnapshot() DeliveryLatency {
	out := DeliveryLatency{Total: quantilesOf(t.latency.Snapshot())}
	t.mu.Lock()
	states := make([]*clientState, 0, len(t.clients))
	for _, st := range t.clients {
		states = append(states, st)
	}
	t.mu.Unlock()
	for _, st := range states {
		if st.lat.Count() == 0 {
			continue
		}
		if out.PerClient == nil {
			out.PerClient = make(map[string]LatencyQuantiles)
		}
		out.PerClient[st.name] = quantilesOf(st.lat.Snapshot())
	}
	return out
}

// depths reports each attached client's buffered delivery count (the
// observability hook behind the router's metrics endpoint).
func (t *deliveryTable) depths() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int)
	for name, st := range t.clients {
		st.mu.Lock()
		if st.q != nil {
			out[name] = len(st.q.ch)
		}
		st.mu.Unlock()
	}
	return out
}

// cursors snapshots every client's delivery cursor — the part of the
// delivery state that seals into persisted router state, so resumes
// keep working across a router restart.
func (t *deliveryTable) cursors() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64)
	for name, st := range t.clients {
		st.mu.Lock()
		if st.cursor > 0 {
			out[name] = st.cursor
		}
		st.mu.Unlock()
	}
	return out
}

// seed pre-creates client states with restored cursors, so stamping
// continues where the sealed router left off. Rings start empty —
// deliveries matched before the restart are gone, and a resuming
// listener observes exactly that as its reported gap.
func (t *deliveryTable) seed(cursors map[string]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, c := range cursors {
		st := t.clients[name]
		if st == nil {
			// Restored clients start the resume-window clock now: if
			// none returns within it, the cursor is released like any
			// other detached state.
			t.clients[name] = &clientState{name: name, cursor: c, detachedAt: time.Now(), lat: hdrhist.New()}
			continue
		}
		st.mu.Lock()
		if st.cursor < c {
			st.cursor = c
		}
		st.mu.Unlock()
	}
}

// snapshot reads the loss/recovery counters.
func (t *deliveryTable) snapshot() DeliveryCounters {
	return DeliveryCounters{
		Enqueued:                t.enqueued.Load(),
		DeliveriesDropped:       t.dropped.Load(),
		SlowConsumerDisconnects: t.disconnects.Load(),
		DeliveriesReplayed:      t.replayed.Load(),
		PauseStalls:             t.pauseStalls.Load(),
		ReplayGapTotal:          t.gapTotal.Load(),
	}
}

// close shuts the table down gracefully: every live queue switches to
// drain mode so already-matched deliveries are flushed, bounded by
// drainTimeout; queues still busy at the deadline are severed. The
// caller guarantees no producer enqueues past this point.
func (t *deliveryTable) close(drainTimeout time.Duration) {
	if drainTimeout <= 0 {
		drainTimeout = DefaultDrainTimeout
	}
	if t.resumeWindow > 0 {
		close(t.sweepQuit)
	}
	<-t.sweepDone
	t.mu.Lock()
	t.closed = true
	var qs []*clientQueue
	for _, st := range t.clients {
		st.mu.Lock()
		if st.q != nil {
			qs = append(qs, st.q)
		}
		st.mu.Unlock()
	}
	t.mu.Unlock()
	for _, q := range qs {
		q.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		for _, q := range qs {
			q.stop()
		}
		<-done
	}
	for _, q := range qs {
		q.stop() // ensure every connection is closed after its flush
	}
}

// fanout is the merger's scratch for grouping one message's matches
// by item and client. Only the merger goroutine touches it, so it is
// reused across messages without a lock; nothing in it outlives a
// deliver call but the grown buffers.
type fanout struct {
	// slot[ref] is 1 + the index into groups of client ref's group, its
	// negation for a client without delivery state, and 0 for a client
	// the message has not named yet. Client refs are dense indices into
	// Router.refName, so it grows to the largest ref seen; deliver
	// resets only the entries it set.
	slot   []int32
	groups []clientGroup

	// kept holds the listening clients' records, ClientRef replaced by
	// the client's group; ends[i] counts item i's matches among them,
	// then is its cursor into ents, the same matches laid out item by
	// item; touched lists the groups an item names, in first sight.
	kept    []core.Record
	ends    []int32
	ents    []itemMatch
	touched []int32
	// seen is the migration window's deduplication set.
	seen map[uint64]struct{}
}

// itemMatch is one listening client's match of one item.
type itemMatch struct {
	subID uint64
	group int32
}

// clientGroup is one client's share of a message's matches.
type clientGroup struct {
	ref    uint32
	st     *clientState // nil: never listened here, so nothing is built
	subIDs []uint64     // an item's matched SubIDs, scratch kept across items
}

// deliver is step ⑥ for one wire message: hand each item's
// still-encrypted payload once to every matched client's outbound
// queue, whatever number of its subscriptions matched. parts are the
// message's records, one list per slice in slice order, bit i of a
// record's Mask naming item Base+i (core.Record). The delivery names
// every matched subscription of that client in slice order and then
// match order, so client-side Subscription handles can route it without
// decrypting twice; each frame is stamped with the client's delivery
// cursor by enqueueTo, items in order. It works in two passes. The
// first resolves each record's client once, for every item its mask
// names: a client's delivery state is resolved the first time the
// message names it, and a client that has never listened here has
// none, so each of its records costs one slot lookup and nothing is
// built for it. The second scatters only the listening clients'
// records into their items and groups each item's matches by client.
// While a migration's two-copy window is open (dedup) a subscription
// can exist on both its source and destination slice and match twice
// in one item; a client's repeated SubIDs then collapse to the first.
// Forwarded publications arriving over federation links take this
// same path, so cross-router deliveries ride local cursors like any
// other.
func (r *Router) deliver(fan *fanout, parts [][]core.Record, payloads [][]byte, epoch uint64, dedup bool) {
	groups, kept := fan.groups[:0], fan.kept[:0]
	if cap(fan.ends) < len(payloads) {
		fan.ends = make([]int32, len(payloads))
	}
	ends := fan.ends[:len(payloads)]
	clear(ends)
	for _, recs := range parts {
		for _, rec := range recs {
			ref := rec.ClientRef
			if n := int(ref) + 1; n > len(fan.slot) {
				fan.slot = append(fan.slot, make([]int32, n-len(fan.slot))...)
			}
			s := fan.slot[ref]
			if s == 0 {
				r.ctlMu.RLock()
				name := r.refName[ref]
				r.ctlMu.RUnlock()
				st := r.delivery.client(name)
				if len(groups) < cap(groups) {
					groups = groups[:len(groups)+1]
				} else {
					groups = append(groups, clientGroup{})
				}
				g := &groups[len(groups)-1]
				g.ref, g.st, g.subIDs = ref, st, g.subIDs[:0]
				if s = int32(len(groups)); st == nil {
					s = -s
				}
				fan.slot[ref] = s
			}
			if s < 0 {
				continue
			}
			rec.ClientRef = uint32(s - 1)
			kept = append(kept, rec)
			for m := rec.Mask; m != 0; m &= m - 1 {
				ends[int(rec.Base)+bits.TrailingZeros64(m)]++
			}
		}
	}
	// ends[i] becomes item i's first position in ents, and after the
	// scatter its end.
	total := int32(0)
	for i, n := range ends {
		ends[i], total = total, total+n
	}
	ents := fan.ents[:0]
	if int(total) > cap(ents) {
		ents = make([]itemMatch, total)
	}
	ents = ents[:total]
	for _, rec := range kept {
		for m := rec.Mask; m != 0; m &= m - 1 {
			i := int(rec.Base) + bits.TrailingZeros64(m)
			ents[ends[i]] = itemMatch{subID: rec.SubID, group: int32(rec.ClientRef)}
			ends[i]++
		}
	}
	// Deliver frames and their SubIDs are always freshly allocated: the
	// replay ring retains them indefinitely, so nothing here may alias
	// the merger's or a job's scratch. The message's deliveries share
	// one SubIDs block, each its own capped window of it. The payload
	// is a view of the publish frame it arrived in — that frame's own,
	// unshared allocation, which lives for as long as a ring references
	// it.
	block := make([]uint64, 0, total)
	touched, lo := fan.touched[:0], int32(0)
	for i, hi := range ends {
		for _, e := range ents[lo:hi] {
			g := &groups[e.group]
			if len(g.subIDs) == 0 {
				touched = append(touched, e.group)
			}
			g.subIDs = append(g.subIDs, e.subID)
		}
		lo = hi
		for _, gi := range touched {
			g := &groups[gi]
			ids := g.subIDs
			if dedup {
				ids = fan.dedup(ids)
			}
			at := len(block)
			block = append(block, ids...)
			r.delivery.enqueueTo(g.st, &Message{
				Type:    TypeDeliver,
				Payload: payloads[i],
				Epoch:   epoch,
				SubIDs:  block[at:len(block):len(block)],
			})
			g.subIDs = g.subIDs[:0]
		}
		touched = touched[:0]
	}
	for g := range groups {
		fan.slot[groups[g].ref] = 0
		groups[g].st = nil // pin no client state past the message
	}
	fan.groups, fan.kept, fan.ends, fan.ents, fan.touched = groups, kept, ends, ents, touched
}

// dedup drops repeated SubIDs from one client's matches of one item in
// place, keeping first sight.
func (f *fanout) dedup(ids []uint64) []uint64 {
	if f.seen == nil {
		f.seen = make(map[uint64]struct{})
	}
	clear(f.seen)
	out := ids[:0]
	for _, id := range ids {
		if _, dup := f.seen[id]; dup {
			continue
		}
		f.seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}
