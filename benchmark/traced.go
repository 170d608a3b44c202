// The traced run: the per-layer metrics. It is separate from the gated
// run — end-to-end metrics are always taken with tracing off — and has
// two parts: the live pass (the load phase again, with spans around the
// harness's own calls and a poll of the router's exported snapshots,
// then a fixed-rate open-loop pass) and the layer walk (walk.go).

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pollRouter samples the router's exported snapshots every 100 ms until
// stop closes.
func pollRouter(b *bed, stop <-chan struct{}, out *[]routerPoll) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		p := routerPoll{AtNs: nanos(), QueueDepths: b.router.DeliveryQueueDepths()}
		total := b.router.MeterSnapshot()
		p.Cycles, p.Transitions = total.Cycles, total.Transitions
		for _, c := range b.router.SliceMeterSnapshots() {
			p.SliceCycles = append(p.SliceCycles, c.Cycles)
		}
		dc := b.router.DeliverySnapshot()
		p.Enqueued, p.Dropped, p.PauseStalls = dc.Enqueued, dc.DeliveriesDropped, dc.PauseStalls
		lat := b.router.DeliveryLatencySnapshot().Total
		p.EnqueueWriteP50, p.EnqueueWriteP99 = lat.P50, lat.P99
		for _, f := range b.router.SliceFootprints() {
			p.SliceStoreBytes = append(p.SliceStoreBytes, f.StoreBytes)
			p.SliceResident = append(p.SliceResident, f.ResidentBytes)
		}
		*out = append(*out, p)
	}
}

// passTotals accumulates closed-loop passes of one mode.
type passTotals struct {
	events  uint64
	wall    time.Duration
	cpu     time.Duration
	blocked time.Duration
}

func (t *passTotals) add(r *loopResult) {
	t.events += r.events
	t.wall += r.wall
	t.cpu += r.proc[1].cpu - r.proc[0].cpu
	t.blocked += r.blocked
}

func (t *passTotals) eventsPerSec() float64 { return ratio(float64(t.events), t.wall.Seconds()) }

// runTraced produces every per-layer metric for one workload and
// writes its span file.
func runTraced(ctx context.Context, w workload, seed int64, p plan) (*result, error) {
	res := &result{workload: w.name, seed: seed, host: captureHost(p.calibrate)}
	b, err := standUp(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	d := newDriver(b)
	fail := func(err error) (*result, error) {
		res.v = d.finish()
		res.attempted = d.attempted()
		res.notef("aborted: %v", err)
		return res, nil
	}
	if _, err := d.closedLoop(w.loadLoop(p.warm)); err != nil {
		return fail(err)
	}
	// The per-layer numbers are as timed; a slice of the host-speed
	// reference between the phases says what host they were timed on.
	ref := newReference(res.host.NProc, p.ref)
	ref.slice()

	// Live pass: the load phase in alternating untraced and traced
	// halves, so the two modes see the same host conditions and their
	// difference is the tracing overhead.
	var polls []routerPoll
	var untraced, traced passTotals
	var first, last procSnap
	var heapPeak uint64
	meterDelta := b.router.MeterSnapshot()
	var loadP99 float64
	half := limit{dur: p.live.dur / 2, events: p.live.events / 2}
	for i := 0; i < 4; i++ {
		on := i%2 == 1
		var stop chan struct{}
		var pollers sync.WaitGroup
		if on {
			stop = make(chan struct{})
			pollers.Add(1)
			go func() { defer pollers.Done(); pollRouter(b, stop, &polls) }()
		}
		d.tracing.Store(on)
		r, err := d.closedLoop(w.loadLoop(half))
		d.tracing.Store(false)
		if on {
			close(stop)
			pollers.Wait()
		}
		if err != nil {
			return fail(err)
		}
		if i == 0 {
			first = r.proc[0]
		}
		last = r.proc[1]
		heapPeak = max(heapPeak, r.proc[0].heapInuse, r.proc[1].heapInuse)
		if on {
			traced.add(&r)
		} else {
			untraced.add(&r)
			if r.lat.P99 > loadP99 {
				loadP99 = r.lat.P99
			}
		}
	}
	ref.slice()
	meterDelta = b.router.MeterSnapshot().Sub(meterDelta)
	liveEvents := float64(untraced.events + traced.events)
	footprints := b.router.SliceFootprints()
	delivery := b.router.DeliverySnapshot()
	enqueueWrite := b.router.DeliveryLatencySnapshot().Total
	cpuPerEvent := ratio(float64(untraced.cpu.Microseconds()), float64(untraced.events))

	rtt, err := d.closedLoop(loopSpec{window: 1, perCall: 1, dur: p.live.dur / 2, events: p.live.events / 2})
	if err != nil {
		return fail(err)
	}
	if !w.churn {
		for i := 0; i < p.regSteps*p.rounds; i++ {
			d.churnStep()
		}
	}
	open, err := d.openLoop(w.openLoopRate, w.batch, p.open)
	if err != nil {
		return fail(err)
	}
	ref.slice()
	res.notef("open loop at %.0f ev/s for %v: %v, generator at most %.2f ms late, backlog at most %d events, overloaded=%v",
		w.openLoopRate, p.open, open.lat, open.latenessMax.Seconds()*1e3, open.backlogMax, open.overloaded)
	res.v = d.finish()
	res.attempted = d.attempted()
	b.close()

	// The same inputs against one slice: what partitioning buys.
	speedup := 1.0
	if w.partitions > 1 {
		single, v, err := singleSlicePass(ctx, w, seed, p)
		if err != nil {
			return nil, err
		}
		res.v.add(v)
		speedup = ratio(untraced.eventsPerSec(), single)
		res.notef("partitions=%d: %.0f ev/s; partitions=1 on the same inputs: %.0f ev/s", w.partitions, untraced.eventsPerSec(), single)
	}

	// Layer walk.
	var walkSpans spanBuf
	rig, err := newWalkRig(w, seed, b.fillers, &walkSpans)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	wc, err := rig.run(seed, p.walkEvents)
	if err != nil {
		return nil, fmt.Errorf("walk: %w", err)
	}
	if err := rig.unregisterTimed(); err != nil {
		return nil, err
	}
	ref.slice()
	res.v[vWalkMiscount] += wc.miscount
	res.v[vSkippedBoundary] += wc.skipped
	res.attempted += wc.events

	ev, dels := float64(wc.events), float64(wc.deliveries)
	perEvent := func(k spanKind) float64 { sum, _ := walkSpans.total(k); return ratio(float64(sum), ev) }
	perSpan := func(k spanKind) float64 { sum, n := walkSpans.total(k); return ratio(float64(sum), float64(n)) }
	perDelivery := func(k spanKind) float64 { sum, _ := walkSpans.total(k); return ratio(float64(sum), dels) }
	_, opens := walkSpans.total(spOpenHeader)
	ecallSelfMatch, nMatchEcalls := walkSpans.self(spEcallMatch)
	ecallSelfCtl, nCtlEcalls := walkSpans.self(spEcallControl)
	matchNs, bareNs := perEvent(spMatch), perEvent(spMatchBare)
	registerNs, unregisterNs := perSpan(spRegister), perSpan(spUnregister)

	// The walk's sum over the layers on the publication's path, per
	// event. On churn the registration work a churn step does is added at
	// its share: churnStepSubs inserts and removals every churnEvery events.
	sumNs := perEvent(spEncodeEvent) + perEvent(spSealHeader) + perEvent(spSealPayload) +
		perEvent(spSendPublish) + perEvent(spRecvPublish) +
		perEvent(spOpenHeader) + matchNs + ratio(float64(ecallSelfMatch), ev) +
		ratio(dels, ev)*(perDelivery(spSendDeliver)+perDelivery(spRecvDeliver)+perDelivery(spOpenPayload))
	if w.switchless {
		sumNs += perEvent(spRingPushPop)
	}
	if w.churn {
		sumNs += (registerNs + unregisterNs) * churnStepSubs / churnEvery
	}

	var storeBytes, residentPeak, maxSlice uint64
	var subs int
	for _, f := range footprints {
		storeBytes += f.StoreBytes
		residentPeak += f.PeakResidentBytes
		subs += f.Subscriptions
		if f.StoreBytes > maxSlice {
			maxSlice = f.StoreBytes
		}
	}
	depthMax := 0
	for _, poll := range polls {
		if n := poll.QueueDepths[listenerID]; n > depthMax {
			depthMax = n
		}
	}
	publishNs, _ := d.pubSpans.total(spLivePublish)
	nextNs, _ := d.conSpans.total(spLiveNext)
	liveWall := (untraced.wall + traced.wall).Seconds()

	res.add("scheme.encode_event_ns", "ns", perEvent(spEncodeEvent))
	res.add("scrypto.seal_header_ns", "ns", perEvent(spSealHeader))
	res.add("scrypto.seal_payload_ns", "ns", perEvent(spSealPayload))
	res.add("broker.send_publish_ns", "ns", perEvent(spSendPublish))
	res.add("broker.recv_publish_ns", "ns", perEvent(spRecvPublish))
	res.add("broker.publish_frame_bytes", "B", ratio(float64(wc.publishBytes), ev))
	res.add("wire.frame_roundtrip_ns", "ns", perSpan(spFrameRoundtrip))
	res.add("scrypto.open_header_ns", "ns", perSpan(spOpenHeader))
	res.add("scrypto.open_header_calls", "count", ratio(float64(opens), ev))
	res.add("sgx.ecall_ns", "ns", ratio(float64(ecallSelfMatch+ecallSelfCtl), float64(nMatchEcalls+nCtlEcalls)))
	res.add("sgx.transitions_per_event", "count", ratio(float64(meterDelta.Transitions), liveEvents))
	res.add("sgx.ring_push_pop_ns", "ns", perSpan(spRingPushPop))
	res.add("scheme.match_ns", "ns", matchNs)
	res.add("scheme.match_bare_ns", "ns", bareNs)
	res.add("scheme.matches_per_event", "count", ratio(float64(wc.matches), ev))
	res.add("simmem.overhead_share", "ratio", 1-ratio(bareNs, matchNs))
	res.add("simmem.accesses_per_event", "count", ratio(float64(meterDelta.LLCHits+meterDelta.LLCMisses), liveEvents))
	res.add("simmem.llc_miss_rate", "ratio", meterDelta.MissRate())
	res.add("simmem.epc_faults_per_event", "count", ratio(float64(meterDelta.PageFaults), liveEvents))
	res.add("scheme.register_ns_per_sub", "ns", registerNs)
	res.add("scheme.unregister_ns", "ns", unregisterNs)
	res.add("scheme.store_bytes_per_sub", "B", ratio(float64(storeBytes), float64(subs)))
	res.add("sgx.epc_resident_peak_mb", "MB", float64(residentPeak)/1e6)
	res.add("streamhub.slice_skew", "ratio", ratio(float64(maxSlice)*float64(len(footprints)), float64(storeBytes)))
	res.add("streamhub.parallel_speedup", "ratio", speedup)
	res.add("broker.send_deliver_ns", "ns", perDelivery(spSendDeliver))
	res.add("broker.recv_deliver_ns", "ns", perDelivery(spRecvDeliver))
	res.add("broker.deliver_frame_bytes", "B", ratio(float64(wc.deliverBytes), dels))
	res.add("scrypto.open_payload_ns", "ns", perDelivery(spOpenPayload))
	res.add("broker.delivery_enqueue_write_p50_us", "us", float64(enqueueWrite.P50)/1e3)
	res.add("broker.delivery_enqueue_write_p99_us", "us", float64(enqueueWrite.P99)/1e3)
	res.add("broker.delivery_queue_depth_max", "count", float64(depthMax))
	res.add("broker.deliveries_dropped", "count", float64(delivery.DeliveriesDropped))
	res.add("broker.pause_stalls", "count", float64(delivery.PauseStalls))
	res.add("broker.replay_gap_total", "count", float64(delivery.ReplayGapTotal))
	res.add("broker.publish_call_ns", "ns", ratio(float64(publishNs), float64(traced.events)))
	res.add("broker.publish_blocked_share", "ratio", ratio(untraced.blocked.Seconds(), untraced.wall.Seconds()))
	res.add("broker.client_next_wait_share", "ratio", ratio(float64(nextNs)/1e9, traced.wall.Seconds()))
	res.add("broker.register_bulk_per_s", "1/s", ratio(float64(w.fillers), b.times.registerFiller.Seconds()))
	res.add("broker.unsubscribe_rtt_p50_us", "us", summarize(d.unsubRTT).P50/1e3)
	res.add("deploy.topology_up_s", "s", b.times.topologyUp.Seconds())
	res.add("attest.provision_s", "s", b.times.provision.Seconds())
	res.add("broker.listener_attach_s", "s", b.times.attach.Seconds())
	res.add("go.alloc_bytes_per_event", "B", ratio(float64(last.allocBytes-first.allocBytes), liveEvents))
	res.add("go.gc_cycles", "count", float64(last.gcCycles-first.gcCycles))
	res.add("go.gc_pause_ms", "ms", (last.gcPause-first.gcPause).Seconds()*1e3)
	res.add("go.heap_inuse_peak_mb", "MB", float64(heapPeak)/1e6)
	res.add("proc.cpu_util", "ratio", ratio((last.cpu-first.cpu).Seconds(), liveWall*float64(res.host.NProc)))
	res.add("walk.sum_us_per_event", "us", sumNs/1e3)
	res.add("walk.match_share", "ratio", ratio(matchNs, sumNs))
	res.add("walk.unattributed_share", "ratio", 1-ratio(sumNs/1e3, cpuPerEvent))
	res.add("driver.openloop_p50_us", "us", open.lat.P50/1e3)
	res.add("driver.openloop_p99_us", "us", open.lat.P99/1e3)
	res.add("driver.openloop_backlog_max", "count", float64(open.backlogMax))
	res.add("driver.gen_lateness_max_ms", "ms", open.latenessMax.Seconds()*1e3)
	res.add("driver.rtt_p99_us", "us", rtt.lat.P99/1e3)
	res.add("driver.load_p99_ms", "ms", loadP99/1e6)
	res.add("trace.overhead_share", "ratio", 1-ratio(traced.eventsPerSec(), untraced.eventsPerSec()))
	res.add("host.ref_speed", "ratio", median(ref.speeds))
	res.add("oracle.failed_share", "ratio", ratio(float64(res.v.failed()), float64(res.attempted)))
	res.notef("live pass: untraced %.0f ev/s (%.1f cpu-us/event), traced %.0f ev/s; walk: %d events, %d deliveries, %d miscounted",
		untraced.eventsPerSec(), cpuPerEvent, traced.eventsPerSec(), wc.events, wc.deliveries, wc.miscount)

	tf := &traceFile{Workload: w.name, Seed: seed, Host: res.host, Polls: polls, Metrics: make(map[string]float64, len(res.metrics))}
	for _, m := range res.metrics {
		tf.Metrics[m.name] = m.value
	}
	path := filepath.Join(traceDir, "trace-"+w.name+".json")
	if err := writeTrace(path, tf, &walkSpans, &d.pubSpans, &d.conSpans); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	res.notef("spans: %d walk + %d live, written to %s", len(walkSpans.spans), len(d.pubSpans.spans)+len(d.conSpans.spans), path)
	return res, nil
}

// singleSlicePass stands the workload up with one partition and
// returns its sustained events/s over the load loop, with whatever its
// oracle found.
func singleSlicePass(ctx context.Context, w workload, seed int64, p plan) (float64, violations, error) {
	w.partitions = 1
	b, err := standUp(ctx, w, seed)
	if err != nil {
		return 0, violations{}, err
	}
	defer b.close()
	d := newDriver(b)
	if _, err := d.closedLoop(w.loadLoop(p.warm)); err != nil {
		return 0, d.finish(), err
	}
	r, err := d.closedLoop(w.loadLoop(p.single))
	if err != nil {
		return 0, d.finish(), err
	}
	return r.eventsPerSec(), d.finish(), nil
}
