// The router's matching layer: the subscription database is split
// across k enclave matcher slices (partitions) behind streamhub.Hub —
// the paper's §3.4 StreamHub-style answer to scale. A publication is
// matched by every slice in parallel and the per-slice result sets are
// merged before delivery; each slice holds 1/k of the database in its
// own enclave, so matching parallelises and the per-enclave working
// set shrinks by k (the Fig. 8 paging-cliff remedy).
//
// The layer is batch-first: a publish-batch travels as ONE unit — one
// enclave entry per slice on the synchronous path, one ring push and
// one matchJob per slice on the switchless path — and the schemes
// match it through their MatchEncodedBatch surface, so per-item work
// (enclave crossings, database walks, allocations) is amortised across
// the batch. A single publish is just a batch of one.
//
// Two publication paths share this layer:
//
//   - synchronous: the publishing connection enters each slice's
//     enclave (one ecall per slice per wire message, however many
//     items it carries) and merges inline;
//   - switchless: each slice owns an untrusted-memory ring drained by
//     a resident enclave worker. The raw wire frame is pushed to every
//     ring, the workers match concurrently, and a single merger
//     goroutine joins the per-slice results in publication order so
//     per-client delivery order is preserved.

package broker

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"scbr/internal/core"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
	"scbr/internal/wire"
)

// partition is one matcher slice: an enclave, its scheme store (a
// share of the subscription database in the matching scheme's
// encoding), and — in the switchless configuration — the slice's
// publication ring and resident worker. The partition lock serialises
// enclave entries and meter access for this slice only; other slices,
// the control plane, and delivery never wait on it.
type partition struct {
	idx     int
	enclave *sgx.Enclave
	slice   scheme.Slice
	engine  *core.Engine // the slice's engine for sgx-plain; nil otherwise

	mu sync.Mutex // serialises this slice's enclave entries and meter

	// Sealed-exchange scratch, guarded by mu: the per-key envelope
	// opener (AES schedule + HMAC pads built once per provisioned key)
	// and the per-item plaintext-header buffers reused across batches.
	opener    *scrypto.Opener
	openerKey *scrypto.SymmetricKey
	enc       [][]byte

	// Switchless plumbing (nil when disabled). jobs carries the decoded
	// counterpart of every frame pushed onto ring, in ring order.
	ring       *sgx.Ring
	jobs       chan *matchJob
	workerDone chan struct{}
}

// matchJob is one wire message — a whole publish-batch — in flight
// through the matching layer: the per-item header/payload views plus
// the merge state the slices fill in. perPart[p][i] is slice p's
// matches for item i: every slot is preallocated by the dispatcher and
// written only by its own slice, so contribution is lock-free — no
// merge mutex, no append-growth under a lock. Jobs are pooled and
// recycled once the merger (or the synchronous caller) has delivered.
type matchJob struct {
	blobs    [][]byte // per-item encrypted/encoded headers
	payloads [][]byte // per-item group-key payloads
	epoch    uint64

	perPart [][][]core.MatchResult // [slice][item] result slots
	merged  []core.MatchResult     // per-item cross-slice merge scratch

	// Switchless completion (unused on the synchronous path): done
	// closes when the last slice has contributed.
	pending atomic.Int32
	done    chan struct{}

	// flush marks a barrier sentinel from the migration engine: the
	// merger closes it and moves on without touching the (empty) job.
	// Every real job dispatched before the sentinel has been merged and
	// delivered by the time it closes.
	flush chan struct{}
}

// forEachPublication visits the publication items a publish or
// publish-batch message carries, without materialising an item slice.
func forEachPublication(m *Message, fn func(blob, payload []byte)) {
	if m.Type == TypePublishBatch {
		for i := range m.Items {
			fn(m.Items[i].Blob, m.Items[i].Payload)
		}
		return
	}
	fn(m.Blob, m.Payload)
}

// contribute signals that one slice has filled its perPart slot.
func (j *matchJob) contribute() {
	if j.pending.Add(-1) == 0 {
		close(j.done)
	}
}

// acquireJob pulls a recycled job from the pool and loads it with m's
// publication items, resizing the per-slice merge slots while keeping
// every previously grown buffer.
func (r *Router) acquireJob(m *Message) *matchJob {
	job, _ := r.jobPool.Get().(*matchJob)
	if job == nil {
		job = &matchJob{}
	}
	job.epoch = m.Epoch
	job.blobs = job.blobs[:0]
	job.payloads = job.payloads[:0]
	if m.Type == TypePublishBatch {
		for i := range m.Items {
			job.blobs = append(job.blobs, m.Items[i].Blob)
			job.payloads = append(job.payloads, m.Items[i].Payload)
		}
	} else {
		job.blobs = append(job.blobs, m.Blob)
		job.payloads = append(job.payloads, m.Payload)
	}
	k, n := len(r.parts), len(job.blobs)
	if cap(job.perPart) < k {
		grown := make([][][]core.MatchResult, k)
		copy(grown, job.perPart[:cap(job.perPart)])
		job.perPart = grown
	}
	job.perPart = job.perPart[:k]
	for p := 0; p < k; p++ {
		rows := job.perPart[p]
		if cap(rows) < n {
			grown := make([][]core.MatchResult, n)
			copy(grown, rows[:cap(rows)])
			rows = grown
		}
		rows = rows[:n]
		for i := range rows {
			rows[i] = rows[i][:0]
		}
		job.perPart[p] = rows
	}
	return job
}

// releaseJob clears the job's references to message bytes (so the pool
// never pins a frame) and recycles it. The match-result slots keep
// their capacity — that is the point of pooling them.
func (r *Router) releaseJob(job *matchJob) {
	for i := range job.blobs {
		job.blobs[i] = nil
	}
	for i := range job.payloads {
		job.payloads[i] = nil
	}
	job.blobs = job.blobs[:0]
	job.payloads = job.payloads[:0]
	job.merged = job.merged[:0]
	job.done = nil
	job.flush = nil
	r.jobPool.Put(job)
}

// deliverJob merges each item's per-slice results in slice order and
// hands it to the delivery layer, reusing the job's merge scratch.
// While a migration's two-copy window is open (dedupActive) a
// subscription can exist on both its source and destination slice and
// match twice in one item; the merge collapses those to one delivery.
// The flag is a single atomic load, so the steady-state path pays
// nothing for the capability.
func (r *Router) deliverJob(job *matchJob) {
	dedup := r.dedupActive.Load()
	for i := range job.blobs {
		job.merged = job.merged[:0]
		for _, rows := range job.perPart {
			job.merged = append(job.merged, rows[i]...)
		}
		if dedup && len(job.merged) > 1 {
			job.merged = dedupMatches(job.merged)
		}
		r.deliver(job.merged, job.payloads[i], job.epoch)
	}
}

// dedupMatches drops repeated SubIDs in place, keeping first sight.
func dedupMatches(merged []core.MatchResult) []core.MatchResult {
	seen := make(map[uint64]struct{}, len(merged))
	out := merged[:0]
	for _, m := range merged {
		if _, dup := seen[m.SubID]; dup {
			continue
		}
		seen[m.SubID] = struct{}{}
		out = append(out, m)
	}
	return out
}

// ringCapacity resolves the configured switchless ring size.
func (r *Router) ringCapacity() int {
	if r.cfg.RingCapacity > 0 {
		return r.cfg.RingCapacity
	}
	return 128
}

// equipSwitchless attaches a publication ring and job channel to one
// partition (its resident worker is launched separately).
func (r *Router) equipSwitchless(p *partition) error {
	ring, err := sgx.NewRing(r.ringCapacity())
	if err != nil {
		return fmt.Errorf("broker: building publication ring: %w", err)
	}
	p.ring = ring
	// Jobs outstanding between dispatch and the worker's receive
	// never exceed the in-ring frame count plus the one the worker
	// already popped, so this capacity keeps dispatch non-blocking.
	p.jobs = make(chan *matchJob, ring.Capacity()+1)
	p.workerDone = make(chan struct{})
	return nil
}

// startSwitchless brings up the per-partition rings, resident workers,
// and the merger. Called once from NewRouter; slices added later by
// Repartition are equipped individually.
func (r *Router) startSwitchless() error {
	for _, p := range r.parts {
		if err := r.equipSwitchless(p); err != nil {
			return err
		}
	}
	r.merge = make(chan *matchJob, r.ringCapacity())
	r.mergerDone = make(chan struct{})
	for _, p := range r.parts {
		go r.publicationWorker(p)
	}
	go r.deliveryMerger()
	return nil
}

// stopSwitchless drains the pipeline: every dispatched job still
// completes (the producers are gone by the time Close calls this), the
// workers unwind, then the merger. No-op when switchless is disabled.
func (r *Router) stopSwitchless() {
	if r.merge == nil {
		return
	}
	for _, p := range r.parts {
		close(p.jobs)
	}
	for _, p := range r.parts {
		<-p.workerDone
	}
	for _, p := range r.parts {
		p.ring.Close()
	}
	close(r.merge)
	<-r.mergerDone
}

// handlePublish ingests a publication from a publisher connection:
// the federation overlay (when enabled) fans it out toward peers
// whose subscription digests match, and the local data plane matches
// and delivers it. Forwarded copies arriving from peers re-enter
// through routeLocal only — their overlay handling (dedup, TTL,
// re-forward) happened in handleFwdPub.
func (r *Router) handlePublish(m *Message) error {
	if err := r.checkScheme(m.Scheme); err != nil {
		// Publications are fire-and-forget; a frame encoded under a
		// different scheme would only be misinterpreted, so drop it.
		return err
	}
	if r.fed != nil {
		r.forwardPublication(m)
	}
	return r.routeLocal(m)
}

// routeLocal is steps ⑤–⑥ for both single publications and
// batches. On the synchronous path each slice's enclave is entered
// once for the whole wire message; on the switchless path the raw
// frame is handed to every slice's ring and the resident workers do
// the rest. Either way, delivery happens through the per-client
// queues — matching never blocks on a client connection.
func (r *Router) routeLocal(m *Message) error {
	if r.merge != nil {
		return r.pushPublication(m)
	}
	sk, _ := r.keys()
	if sk == nil {
		return ErrNotProvisioned
	}
	// The shared plane lock spans dispatch through delivery, so the
	// slice set (and the job's per-slice slot layout) cannot change
	// under this publication; a resize waits for it to finish.
	r.planeMu.RLock()
	defer r.planeMu.RUnlock()
	job := r.acquireJob(m)
	r.matchFanout(job, sk)
	r.deliverJob(job)
	r.releaseJob(job)
	return nil
}

// matchFanout runs trusted step ⑤ on every slice in parallel: one
// ecall per slice covering the whole batch, each slice filling its own
// preallocated merge slot. A per-item failure (tampered ciphertext,
// malformed header) drops that item's contribution, matching the
// wire's fire-and-forget semantics.
func (r *Router) matchFanout(job *matchJob, sk *scrypto.SymmetricKey) {
	run := func(p *partition) {
		p.mu.Lock()
		_ = p.enclave.Ecall(func() error {
			r.matchSliceBatch(p, job, sk)
			return nil
		})
		p.mu.Unlock()
	}
	if len(r.parts) == 1 || runtime.GOMAXPROCS(0) == 1 {
		// One slice, or one P: fan-out would only add scheduling
		// latency, so visit the slices in the calling goroutine.
		for _, p := range r.parts {
			run(p)
		}
		return
	}
	var wg sync.WaitGroup
	for _, p := range r.parts[1:] {
		wg.Add(1)
		go func(p *partition) {
			defer wg.Done()
			run(p)
		}(p)
	}
	run(r.parts[0]) // slice 0 rides the caller, saving one handoff
	wg.Wait()
}

// matchSliceBatch is trusted step ⑤ on one slice for a whole batch:
// authenticate each header and match the batch against the slice's
// share of the index in one store pass. Sealed-exchange schemes
// (sgx-plain) open every SK envelope first — each slice decrypts
// independently, the replicated key management of the paper's
// partitioning note — into per-item buffers the slice reuses across
// batches; ciphertext schemes (aspe) hand the blobs to the store
// as-is. An item whose envelope fails authentication is blanked, so
// the scheme's decoder drops it exactly as the per-item path did. The
// caller holds p.mu and has accounted the enclave entry (an ecall on
// the synchronous path, the resident worker on the switchless path).
// Results land in job.perPart[p.idx] — this slice's own slot.
//
// scbr:vet enclave-boundary: both callers charge the entry — matchFanout wraps this in an Ecall body, publicationWorker is the resident switchless worker whose transition is charged once per drain
func (r *Router) matchSliceBatch(p *partition, job *matchJob, sk *scrypto.SymmetricKey) {
	encs := job.blobs
	if r.backend.Caps.SealedExchange {
		if p.openerKey != sk {
			opener, err := scrypto.NewOpener(sk)
			if err != nil {
				return
			}
			p.opener, p.openerKey = opener, sk
		}
		meter := p.slice.Accessor().Meter()
		for cap(p.enc) < len(job.blobs) {
			p.enc = append(p.enc[:cap(p.enc)], nil)
		}
		p.enc = p.enc[:len(job.blobs)]
		for i, blob := range job.blobs {
			plain, err := p.opener.OpenAppend(blob, p.enc[i][:0])
			if err != nil {
				p.enc[i] = p.enc[i][:0] // authentication failure: the decoder drops the empty item
				continue
			}
			meter.ChargeAES(len(blob))
			p.enc[i] = plain
		}
		encs = p.enc
	}
	// A store-level error (an unconfigured store) contributes nothing
	// for any item, exactly as every per-item call would have failed.
	_ = r.hub.MatchEncodedBatchIn(p.idx, encs, job.perPart[p.idx])
}

// pushPublication hands one wire message to the switchless pipeline:
// the job — carrying the whole batch — is dispatched to every slice's
// worker, the raw frame (the publisher's exact bytes, no re-encode) is
// pushed onto every slice's ring, and the job joins the merge queue.
// pushMu keeps the three in the same order across partitions, which is
// what makes ring position and job position line up and the merger's
// output order match publication order. Ring backpressure (a full ring
// blocks Push) propagates to the producer exactly as the single-ring
// design did.
func (r *Router) pushPublication(m *Message) error {
	raw := m.raw
	if raw == nil {
		// Built in-process (a forwarded publication re-entering from a
		// peer link, a test): wire traffic always carries its received
		// frame. The ring carries the bytes a publisher would have sent.
		tag, _ := dataTag(m.Type)
		f := m.dataFrame(tag)
		var err error
		if raw, err = wire.AppendDataFrame(nil, &f); err != nil {
			return fmt.Errorf("encoding publication for the ring: %w", err)
		}
	}
	// The shared plane lock keeps the slice set stable from slot
	// sizing through the dispatch/push/merge handoff, so every ring
	// this job was dispatched to exists until the job is in the merge
	// queue; a resize waits behind in-flight pushes.
	r.planeMu.RLock()
	defer r.planeMu.RUnlock()
	job := r.acquireJob(m)
	job.pending.Store(int32(len(r.parts)))
	job.done = make(chan struct{})
	r.pushMu.Lock()
	defer r.pushMu.Unlock()
	for _, p := range r.parts {
		p.jobs <- job
	}
	for _, p := range r.parts {
		if err := p.ring.Push(raw); err != nil {
			return fmt.Errorf("%w: publication ring: %v", ErrClosed, err)
		}
	}
	r.merge <- job
	return nil
}

// publicationWorker is one slice's resident enclave thread in the
// switchless configuration: it enters the enclave once and matches
// publication batches straight off the slice's untrusted ring — one
// ring pop and one store pass per batch. Per-item failures (tampered
// ciphertext, malformed headers) and an unprovisioned router drop the
// slice's contribution, exactly as the per-ecall path does for
// fire-and-forget publish messages.
//
// The worker does not use Enclave.ServeRing: that helper charges the
// enclave meter outside any lock, while here registration ecalls on
// the same slice charge the same meter concurrently. All meter access
// below happens under the partition lock, like every other path that
// enters this slice.
func (r *Router) publicationWorker(p *partition) {
	defer close(p.workerDone)
	entered := false
	var buf []byte
	for job := range p.jobs {
		raw, ok := p.ring.Pop(buf)
		if !ok {
			// Ring severed mid-job (teardown): report empty so the
			// merger never wedges on this job.
			job.contribute()
			continue
		}
		buf = raw
		sk, _ := r.keys()
		p.mu.Lock()
		meter := p.slice.Accessor().Meter()
		if !entered {
			meter.ChargeTransition() // the worker's one-time entry/exit round trip
			entered = true
		}
		meter.Charge(meter.Cost.SwitchlessPollCycles)
		if sk != nil {
			r.matchSliceBatch(p, job, sk)
		}
		p.mu.Unlock()
		job.contribute()
	}
}

// deliveryMerger joins the per-slice match results in publication
// order and hands each item to the delivery layer, recycling the job
// once delivered. It is the only goroutine that forwards switchless
// matches, so per-client delivery order equals publication order even
// though the slices match out of lockstep; it never blocks on a client
// (the delivery queues are bounded and slow consumers are cut loose),
// so one merger keeps up with k matchers.
func (r *Router) deliveryMerger() {
	defer close(r.mergerDone)
	for job := range r.merge {
		if job.flush != nil {
			// Migration barrier sentinel: everything queued before it
			// has been delivered; signal and move on.
			close(job.flush)
			continue
		}
		<-job.done
		r.deliverJob(job)
		r.releaseJob(job)
	}
}
