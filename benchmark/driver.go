// The load driver: one publishing goroutine on the publisher's one
// router connection, and the listener's consuming goroutines. Publish
// is fire-and-forget, so a closed loop here is a bounded in-flight
// window: the publisher blocks on a token channel and the consumer
// returns a token when the last event of a publish call arrives.

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scbr/internal/broker"
	"scbr/internal/scheme"
	"scbr/internal/simmem"
)

const (
	// maxWindow bounds every loop's window (publish calls in flight).
	maxWindow = 64
	// stallTimeout is how long the publisher waits for a delivery before
	// declaring the outstanding events lost.
	stallTimeout = 10 * time.Second
	// openLoopBacklogCap stops an open-loop pass whose backlog shows the
	// offered rate is beyond the router (events published, not yet seen).
	openLoopBacklogCap = 4096
)

var errStalled = errors.New("no delivery within the stall timeout: outstanding events are lost")

type driver struct {
	b  *bed
	es *eventStream

	// Publisher side.
	seq           uint64 // next event sequence number
	sinceChurn    int    // events published since the last churn step
	probeWant     uint64 // events the probe subscription must match
	probeBoundary uint64 // aspe: events too close to a probe bound to call
	churnOps      uint64 // RegisterBulk and Unsubscribe calls made
	events        []broker.Event
	stall         *time.Timer
	blocked       time.Duration // time spent waiting for a token
	regRTT        []int64       // RegisterBulk(churnStepSubs) round trips
	unsubRTT      []int64       // Client.Unsubscribe round trips
	v             violations    // publisher-side findings
	pubSpans      spanBuf

	// Consumer side; the driver reads these only after a drain.
	chk      *checker
	lat      []int64 // publish → client-decrypt latency per event
	conSpans spanBuf

	// Between the two: the consumer returns a window slot through tokens
	// when the last event of a publish call arrives; a drain publishes its
	// target and waits for drained.
	tokens   chan struct{}
	target   atomic.Uint64 // events the draining publisher waits for; 0 when not draining
	drained  chan struct{}
	received atomic.Uint64
	probeGot atomic.Uint64
	probeBad atomic.Uint64 // probe-stream deliveries out of order or unreadable
	tracing  atomic.Bool   // record spans around the harness's own calls
	wg       sync.WaitGroup
}

func newDriver(b *bed) *driver {
	d := &driver{
		b:       b,
		es:      newEventStream(b.seed),
		events:  make([]broker.Event, b.w.batch),
		tokens:  make(chan struct{}, maxWindow),
		drained: make(chan struct{}, 1),
		stall:   time.NewTimer(time.Hour),
		chk:     newChecker(b.all.ID(), b.probe.ID(), b.w.payload),
		lat:     make([]int64, 0, 1<<17),
		regRTT:  make([]int64, 0, 1<<12),
	}
	d.stall.Stop()
	for i := range d.events {
		d.events[i].Payload = make([]byte, b.w.payload)
	}
	d.wg.Add(2)
	go d.consumeAll()
	go d.consumeProbe()
	return d
}

// consumeAll drains the match-all subscription: it judges every
// delivery, records its latency and returns window tokens.
func (d *driver) consumeAll() {
	defer d.wg.Done()
	for {
		tracing := d.tracing.Load()
		var t0 int64
		if tracing {
			t0 = nanos()
		}
		del, err := d.b.all.Next(d.b.ctx)
		if err != nil {
			return
		}
		now := nanos()
		seq, sent, flags, ok := d.chk.observe(del)
		if tracing {
			d.conSpans.add(spLiveNext, 0, seq, t0, now)
		}
		if !ok {
			continue
		}
		d.lat = append(d.lat, now-sent)
		if flags&flagLastOfCall != 0 {
			select {
			case d.tokens <- struct{}{}:
			default: // only a duplicated delivery can overfill; the checker has counted it
			}
		}
		if d.received.Add(1) == d.target.Load() {
			select {
			case d.drained <- struct{}{}:
			default:
			}
		}
	}
}

// consumeProbe drains the probe subscription's handle (an undrained
// handle would stall the client's pump) and checks its order; which
// events belong on it is judged from SubIDs on the match-all stream.
func (d *driver) consumeProbe() {
	defer d.wg.Done()
	var last uint64
	have := false
	for {
		del, err := d.b.probe.Next(d.b.ctx)
		if err != nil {
			return
		}
		if del.Err != nil || len(del.Payload) < payloadHeader {
			d.probeBad.Add(1)
			continue
		}
		seq := binary.LittleEndian.Uint64(del.Payload[0:8])
		if have && seq <= last {
			d.probeBad.Add(1)
		}
		last, have = seq, true
		d.probeGot.Add(1)
	}
}

// publishCall generates n events and publishes them in one call,
// stamped as sent at stamp. windowed marks the last event so its
// arrival returns a token.
func (d *driver) publishCall(n int, stamp int64, windowed bool) error {
	first := d.seq
	exact := d.b.w.scheme != scheme.ASPE
	for i := 0; i < n; i++ {
		ev := d.es.next()
		ev.header(&d.events[i].Header)
		var flags byte
		if windowed && i == n-1 {
			flags |= flagLastOfCall
		}
		if probeSub.matches(&ev) {
			flags |= flagProbe
		}
		if !exact && probeSub.nearBound(&ev, boundaryEps) {
			flags |= flagProbeBoundary
			d.probeBoundary++
		} else if flags&flagProbe != 0 {
			d.probeWant++
		}
		fillPayload(d.events[i].Payload, d.seq, stamp, flags)
		d.seq++
	}
	tracing := d.tracing.Load()
	var t0 int64
	if tracing {
		t0 = nanos()
	}
	var err error
	if n == 1 {
		err = d.b.pub.Publish(d.b.ctx, d.events[0].Header, d.events[0].Payload)
	} else {
		err = d.b.pub.PublishBatch(d.b.ctx, d.events[:n])
	}
	if tracing {
		d.pubSpans.add(spLivePublish, 0, first, t0, nanos())
	}
	if err != nil {
		d.v[vPublishFailed] += uint64(n)
		return fmt.Errorf("publishing events %d..%d: %w", first, d.seq-1, err)
	}
	if d.b.w.churn {
		for d.sinceChurn += n; d.sinceChurn >= churnEvery; d.sinceChurn -= churnEvery {
			d.churnStep()
		}
	}
	return nil
}

// churnStep registers churnStepSubs fresh subscriptions in one
// RegisterBulk, then unsubscribes the set the previous step registered,
// so the database size is steady and the read : write mix is a fixed
// function of the published event count.
func (d *driver) churnStep() {
	b := d.b
	specs := specsOf(b.churnSrc.take(churnStepSubs))
	tracing := d.tracing.Load()
	t0 := nanos()
	ids, err := b.pub.RegisterBulk(b.ctx, churnClientID, b.topo.IDs[0], specs)
	t1 := nanos()
	d.churnOps++
	if err != nil {
		d.v[vChurnFailed]++
		return
	}
	d.regRTT = append(d.regRTT, t1-t0)
	if tracing {
		d.pubSpans.add(spLiveRegisterBulk, 0, d.seq, t0, t1)
	}
	old := b.churnLive
	b.churnLive = ids
	for _, id := range old {
		u0 := nanos()
		err := b.churner.Unsubscribe(b.ctx, id)
		u1 := nanos()
		d.churnOps++
		if err != nil {
			d.v[vChurnFailed]++
			continue
		}
		d.unsubRTT = append(d.unsubRTT, u1-u0)
		if tracing {
			d.pubSpans.add(spLiveUnsubscribe, 0, d.seq, u0, u1)
		}
	}
}

// acquire takes one slot of the window, blocking (never spinning)
// until the consumer returns one.
func (d *driver) acquire() error {
	select {
	case <-d.tokens:
		return nil
	default:
	}
	t0 := time.Now()
	err := d.await(d.tokens)
	d.blocked += time.Since(t0)
	return err
}

// await receives from ch, giving up after stallTimeout.
func (d *driver) await(ch <-chan struct{}) error {
	d.stall.Reset(stallTimeout)
	defer d.stall.Stop()
	select {
	case <-ch:
		return nil
	case <-d.stall.C:
		return errStalled
	case <-d.b.ctx.Done():
		return d.b.ctx.Err()
	}
}

// drain waits until every event published so far has been delivered,
// then empties the window's bookkeeping.
func (d *driver) drain() error {
	d.target.Store(d.seq)
	// A signal may be left over from the drain before (the consumer
	// signals after the publisher has already seen the count), hence the
	// loop on the count itself.
	for d.received.Load() != d.seq {
		if err := d.await(d.drained); err != nil {
			return err
		}
	}
	d.target.Store(0)
	for len(d.tokens) > 0 {
		<-d.tokens
	}
	return nil
}

// loopSpec bounds one closed-loop pass: publishing stops after dur or
// after events events, whichever comes first (events 0 = no count
// limit); the pass then drains.
type loopSpec struct {
	window  int // publish calls in flight
	perCall int // events per publish call
	dur     time.Duration
	events  uint64
}

// loopResult is what one pass cost, first publish through drain.
type loopResult struct {
	events  uint64
	wall    time.Duration
	blocked time.Duration
	proc    [2]procSnap     // before, after
	meter   simmem.Counters // Σ over slices, delta
	lat     timing
}

func (r *loopResult) eventsPerSec() float64 { return float64(r.events) / r.wall.Seconds() }
func (r *loopResult) cpuMicrosPerEvent() float64 {
	return float64((r.proc[1].cpu - r.proc[0].cpu).Microseconds()) / float64(r.events)
}
func (r *loopResult) simMicrosPerEvent() float64 {
	return simmem.DefaultCost().Micros(r.meter.Cycles) / float64(r.events)
}
func (r *loopResult) allocsPerEvent() float64 {
	return float64(r.proc[1].mallocs-r.proc[0].mallocs) / float64(r.events)
}

// closedLoop runs one pass. The drain is inside the clock: the pass
// ends when the last expected delivery has arrived.
func (d *driver) closedLoop(s loopSpec) (loopResult, error) {
	var r loopResult
	for i := 0; i < s.window; i++ {
		d.tokens <- struct{}{}
	}
	d.lat = d.lat[:0]
	blocked0 := d.blocked
	meter0 := d.b.router.MeterSnapshot()
	r.proc[0] = snapProc()
	start := time.Now()
	first := d.seq
	for time.Since(start) < s.dur && (s.events == 0 || d.seq-first < s.events) {
		if err := d.acquire(); err != nil {
			return r, err
		}
		if err := d.publishCall(s.perCall, nanos(), true); err != nil {
			return r, err
		}
	}
	if err := d.drain(); err != nil {
		return r, err
	}
	r.wall = time.Since(start)
	r.proc[1] = snapProc()
	r.meter = d.b.router.MeterSnapshot().Sub(meter0)
	r.events = d.seq - first
	r.blocked = d.blocked - blocked0
	r.lat = summarize(d.lat)
	if r.events == 0 {
		return r, errors.New("pass published no events")
	}
	return r, nil
}

// openResult is one fixed-rate open-loop pass. Latency is timed from
// each call's scheduled send, so a stall charges every event it delays.
type openResult struct {
	events      uint64
	lat         timing
	latenessMax time.Duration // how late the generator ran at worst
	backlogMax  uint64        // events published and not yet seen
	overloaded  bool          // stopped early: backlog passed the cap
}

func (d *driver) openLoop(rate float64, perCall int, dur time.Duration) (openResult, error) {
	var r openResult
	d.lat = d.lat[:0]
	interval := float64(perCall) / rate * 1e9
	start := nanos()
	first, recv0 := d.seq, d.received.Load()
	for k := 0; ; k++ {
		due := start + int64(float64(k)*interval)
		if due-start >= int64(dur) {
			break
		}
		if wait := due - nanos(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if late := time.Duration(nanos() - due); late > r.latenessMax {
			r.latenessMax = late
		}
		backlog := (d.seq - first) - (d.received.Load() - recv0)
		if backlog > r.backlogMax {
			r.backlogMax = backlog
		}
		if backlog > openLoopBacklogCap {
			r.overloaded = true
			break
		}
		if err := d.publishCall(perCall, due, false); err != nil {
			return r, err
		}
	}
	r.events = d.seq - first
	if err := d.drain(); err != nil {
		return r, err
	}
	r.lat = summarize(d.lat)
	return r, nil
}

// finish stops the consumers and closes the oracle's books: whatever
// was published and not seen is never-delivered, and the probe handle
// must have carried exactly the events the evaluator picked.
func (d *driver) finish() violations {
	want, slack := d.probeWant, d.probeBoundary
	deadline := time.Now().Add(2 * time.Second)
	for d.probeGot.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.b.cancel()
	d.wg.Wait()
	d.chk.finish(d.seq)
	v := d.chk.v
	v.add(d.v)
	v[vOutOfOrder] += d.probeBad.Load()
	if got := d.probeGot.Load(); got < want {
		v[vProbeMiscount] += want - got
	} else if got > want+slack {
		v[vProbeMiscount] += got - want - slack
	}
	return v
}

// attempted is the number of operations the run made.
func (d *driver) attempted() uint64 { return d.seq + d.churnOps }
