// The router's matching layer: the subscription database is split
// across k enclave matcher slices (partitions) behind streamhub.Hub —
// the paper's §3.4 StreamHub-style answer to scale. A publication is
// matched by every slice in parallel and the per-slice result sets are
// merged before delivery; each slice holds 1/k of the database in its
// own enclave, so matching parallelises and the per-enclave working
// set shrinks by k (the Fig. 8 paging-cliff remedy).
//
// The layer is batch-first: a publish-batch travels as ONE unit — one
// matchJob handed to every slice — and the schemes match it through
// their MatchRecords surface, so per-item work (enclave crossings,
// database walks, allocations) is amortised across the batch. A single
// publish is just a batch of one. What a slice hands back is one record
// per matched subscription, the items that matched it a bitmask, so a
// subscription that every item of a batch matches is one record, not
// one result per item; the merger expands only the records of clients
// that listen. A slice batches across wire messages
// too: its worker takes every job already queued behind the one it
// woke for, up to one walk's width, and matches the group in one
// enclave entry and one store pass, so under load the per-entry and
// per-walk costs divide by the queue depth as well.
//
// There is one publication path. Every slice owns a resident worker
// fed by a job queue; the publishing connection dispatches the decoded
// message to every worker and to the merge queue and goes back to its
// socket, the workers match concurrently, and a single merger goroutine
// joins the per-slice results in publication order, so per-client
// delivery order is preserved. What RouterConfig.Switchless selects is
// only the transition a worker charges its slice's meter: the call
// gate's EENTER+EEXIT round trip per drained group, or — the paper's
// §6 "message exchanges at the enclave border" — one entry for the
// worker's lifetime plus a poll of the untrusted queue per message.

package broker

import (
	"sync"
	"sync/atomic"

	"scbr/internal/core"
	"scbr/internal/pubsub"
	"scbr/internal/scheme"
	"scbr/internal/scrypto"
	"scbr/internal/sgx"
)

// pipelineDepth bounds the wire messages in flight between dispatch
// and delivery: the capacity of every slice's job queue and of the
// merge queue, and the number of recycled jobs the router retains. A
// full queue blocks the publishing connection — the pipeline's
// backpressure — and 128 messages is deep enough that a worker never
// idles behind a producer's scheduling hiccup.
const pipelineDepth = 128

// groupEvents is how many publication items a slice worker gathers
// into one enclave entry before it stops draining its queue: one
// walk's width, the events the forest walk and the ASPE scan serve per
// pass. A group that reaches it closes; the job that crosses it stays
// in the group, so a group holds fewer than groupEvents items plus one
// message, and its records — one list, which every job of the group
// reads its window of — span as many walk chunks as that takes.
const groupEvents = pubsub.ColumnEvents

// partition is one matcher slice: an enclave, its scheme store (a
// share of the subscription database in the matching scheme's
// encoding), and the slice's job queue and resident worker. The
// partition lock serialises enclave entries and meter access for this
// slice only; other slices, the control plane, and delivery never wait
// on it. Its open is the broker's one SK-envelope open. It keeps no
// match results: a drained group's records go to the group's last job
// (matchJob), where the merger reads them.
type partition struct {
	idx     int
	enclave *sgx.Enclave
	slice   scheme.Slice

	mu sync.Mutex // serialises this slice's enclave entries and meter

	// Match scratch, guarded by mu: the per-key envelope opener (the
	// AES-GCM key setup, built once per provisioned key), a drained
	// group's headers as the store reads them — opened plaintexts whose
	// buffers are reused under sealed exchange, the blobs themselves
	// otherwise — and one-item opens' buffer.
	opener    *scrypto.Opener
	openerKey *scrypto.SymmetricKey
	enc       [][]byte
	plain     []byte

	// jobs feeds the slice's resident worker, in dispatch order;
	// workerDone closes when the worker has drained it and exited.
	jobs       chan *matchJob
	workerDone chan struct{}
}

// matchJob is one wire message — a whole publish-batch — in flight
// through the matching layer: the per-item header/payload views plus
// the merge state the slices fill in. Slice p matches the job as part
// of a drained group and writes the group's records once, into the
// group's last job's perPart[p]; parts[p] is this job's view of that
// list, lo its first item within the group (recordView). Every slot is
// sized by the dispatcher and written only by its own slice, so
// contribution is lock-free — no merge mutex, no append-growth under a
// lock. Jobs are recycled once the merger has delivered them.
//
// A buffer outlives every view of it: the merger delivers jobs in
// dispatch order, and a slice's queue holds them in that order, so the
// last job of a group — the one whose buffer the group's views read —
// is delivered, and recycled, after every earlier job of the group.
// No view outlives its delivery either: releaseJob clears them.
type matchJob struct {
	blobs    [][]byte // per-item encrypted/encoded headers
	payloads [][]byte // per-item group-key payloads
	epoch    uint64

	perPart [][]core.Record // [slice] records of the group this job ended
	parts   []recordView    // [slice] this job's view of its group's records

	// pending counts the slices yet to contribute; the last one hands
	// the merger a token on done (capacity 1, so the job is reusable).
	pending atomic.Int32
	done    chan struct{}

	// flush marks a barrier sentinel from the migration engine: the
	// merger closes it and moves on without touching the (empty) job.
	// Every real job dispatched before the sentinel has been merged and
	// delivered by the time it closes.
	flush chan struct{}
}

// recordView is one job's view of a drained group's records on one
// slice: recs are the group's, bit i of a record's Mask naming group
// item Base+i, and the job's items are the group's lo, lo+1, and so on.
type recordView struct {
	recs []core.Record
	lo   int
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
		j.done <- struct{}{}
	}
}

// jobList recycles matchJobs — batch carriers plus their grown result
// slots. It is a stack, so a pipeline that keeps few messages in
// flight keeps reusing the same few jobs, and it is bounded, so the
// retained slots are bounded by the pipeline's depth rather than
// multiplied per P as a sync.Pool's caches are.
type jobList struct {
	mu   sync.Mutex
	free []*matchJob
}

func (l *jobList) get() *matchJob {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return &matchJob{done: make(chan struct{}, 1)}
	}
	job := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return job
}

func (l *jobList) put(job *matchJob) {
	l.mu.Lock()
	if len(l.free) < pipelineDepth {
		l.free = append(l.free, job)
	}
	l.mu.Unlock()
}

// acquireJob takes a recycled job and loads it with m's publication
// items, resizing the per-slice record slots while keeping every
// previously grown buffer. The caller holds planeMu, so the slice count
// the slots are sized for is the one the job is dispatched to.
func (r *Router) acquireJob(m *Message) *matchJob {
	job := r.jobs.get()
	job.epoch = m.Epoch
	if m.Type == TypePublishBatch {
		for i := range m.Items {
			job.blobs = append(job.blobs, m.Items[i].Blob)
			job.payloads = append(job.payloads, m.Items[i].Payload)
		}
	} else {
		job.blobs = append(job.blobs, m.Blob)
		job.payloads = append(job.payloads, m.Payload)
	}
	k := len(r.parts)
	if cap(job.perPart) < k {
		grown := make([][]core.Record, k)
		copy(grown, job.perPart[:cap(job.perPart)])
		job.perPart = grown
		job.parts = make([]recordView, k)
	}
	job.perPart = job.perPart[:k]
	job.parts = job.parts[:k]
	job.pending.Store(int32(k))
	return job
}

// releaseJob clears the job's references to message bytes (so the free
// list never pins a frame) and its views (so a free job pins no other
// job's records), and recycles it. The record slots keep their
// capacity — that is the point of recycling them.
func (r *Router) releaseJob(job *matchJob) {
	clear(job.blobs)
	clear(job.payloads)
	clear(job.parts)
	job.blobs = job.blobs[:0]
	job.payloads = job.payloads[:0]
	r.jobs.put(job)
}

// startPipeline brings up the per-slice workers and the merger. Called
// once from NewRouter; the workers of slices added later by
// Repartition are started individually.
func (r *Router) startPipeline() {
	r.merge = make(chan *matchJob, pipelineDepth)
	r.mergerDone = make(chan struct{})
	for _, p := range r.parts {
		go r.sliceWorker(p)
	}
	go r.deliveryMerger()
}

// stopPipeline drains the pipeline: every dispatched job still
// completes (the producers are gone by the time Close calls this), the
// workers unwind, then the merger.
func (r *Router) stopPipeline() {
	stopWorkers(r.parts)
	close(r.merge)
	<-r.mergerDone
}

// stopWorkers closes the partitions' job queues and waits for their
// workers to finish what was queued. No dispatcher may still reach them.
func stopWorkers(parts []*partition) {
	for _, p := range parts {
		close(p.jobs)
	}
	for _, p := range parts {
		<-p.workerDone
	}
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
	r.routeLocal(m)
	return nil
}

// routeLocal hands one wire message — a publication or a whole batch —
// to the pipeline for steps ⑤–⑥: the job is dispatched to every
// slice's worker and joins the merge queue. pushMu keeps the two in
// the same order across partitions and producers, which is what makes
// the merger's output order match publication order. A full queue
// blocks the producer: the pipeline's backpressure. Delivery happens
// through the per-client queues — matching never blocks on a client
// connection.
func (r *Router) routeLocal(m *Message) {
	// The shared plane lock keeps the slice set stable from slot sizing
	// through the dispatch/merge handoff, so every worker this job was
	// dispatched to exists until the job is in the merge queue; a
	// resize waits behind in-flight dispatches.
	r.planeMu.RLock()
	defer r.planeMu.RUnlock()
	job := r.acquireJob(m)
	r.pushMu.Lock()
	defer r.pushMu.Unlock()
	for _, p := range r.parts {
		p.jobs <- job
	}
	r.merge <- job
}

// sliceWorker is one slice's resident matcher. It blocks for one job,
// then, under the partition lock, drains every job already queued
// behind it while the group holds fewer than groupEvents items — it
// never waits for a job that has not arrived, so a lone publication
// is a group of one — and runs trusted step ⑤ on the group in one
// store pass. How it accounts for being inside the enclave is the
// router's transition policy: the call gate's round trip per group
// (Ecall); or, switchless, one entry for the worker's lifetime and a
// poll of the untrusted queue per message. Each job then contributes,
// in queue order. An unprovisioned router drops the slice's
// contribution, as do per-item failures (tampered ciphertext,
// malformed headers) — publish messages are fire-and-forget.
//
// All meter access happens under the partition lock: registration
// ecalls on the same slice charge the same meter concurrently. The
// drain runs under it too, so it also gathers what queued while a
// registration held the slice.
func (r *Router) sliceWorker(p *partition) {
	defer close(p.workerDone)
	entered := false
	var group []*matchJob
	for job := range p.jobs {
		p.mu.Lock()
		group = p.drain(append(group, job))
		sk := r.keys()
		switch {
		case r.cfg.Switchless:
			meter := p.slice.Accessor().Meter()
			if !entered {
				meter.ChargeTransition() // the worker's one-time entry/exit round trip
				entered = true
			}
			for range group {
				meter.Charge(meter.Cost.SwitchlessPollCycles)
			}
			if sk != nil {
				r.matchSliceBatch(p, group, sk)
			}
		case sk != nil:
			_ = p.enclave.Ecall(func() error {
				r.matchSliceBatch(p, group, sk)
				return nil
			})
		}
		p.mu.Unlock()
		for _, job := range group {
			job.contribute()
		}
		clear(group)
		group = group[:0]
	}
}

// drain appends to group, without blocking, the jobs queued behind it
// while the group holds fewer than groupEvents items. A closed queue
// ends the drain; the worker's range loop then ends the worker. The
// caller holds p.mu.
func (p *partition) drain(group []*matchJob) []*matchJob {
	n := len(group[0].blobs)
	for n < groupEvents {
		select {
		case job, ok := <-p.jobs:
			if !ok {
				return group
			}
			group = append(group, job)
			n += len(job.blobs)
		default:
			return group
		}
	}
	return group
}

// matchSliceBatch is trusted step ⑤ on one slice for a drained group
// of wire messages: authenticate each header and match every item of
// every job against the slice's share of the index in one store pass.
// A lone message is a group of one. Sealed-exchange schemes (sgx-plain)
// open every SK envelope first — each slice decrypts independently,
// the replicated key management of the paper's partitioning note —
// into per-item buffers the slice reuses across groups; ciphertext
// schemes (aspe) hand the blobs to the store as-is. An item whose
// envelope fails authentication is blanked, so the scheme's decoder
// drops it exactly as the per-item path did. The caller holds p.mu and
// has accounted the enclave entry. The group's records land once, in
// its last job's perPart[p.idx] — this slice's own slot — and each job
// of the group, a lone one too, gets a view of them from its first
// item on (matchJob: why the last job's buffer outlives the views).
//
// scbr:vet enclave-boundary: sliceWorker, the only caller, charges the entry under either transition policy — it wraps this in an Ecall body, or is the resident switchless worker whose one transition was charged when it entered
func (r *Router) matchSliceBatch(p *partition, group []*matchJob, sk *scrypto.SymmetricKey) {
	n := 0
	for _, job := range group {
		n += len(job.blobs)
	}
	for cap(p.enc) < n {
		p.enc = append(p.enc[:cap(p.enc)], nil)
	}
	p.enc = p.enc[:n]
	sealed := r.backend.Caps.SealedExchange
	i := 0
	for _, job := range group {
		for _, blob := range job.blobs {
			if !sealed {
				p.enc[i] = blob
			} else if plain, err := p.open(sk, blob, p.enc[i][:0]); err == nil {
				p.enc[i] = plain
			} else {
				p.enc[i] = p.enc[i][:0] // authentication failure: the decoder drops the empty item
			}
			i++
		}
	}
	// A store-level error (an unconfigured store) contributes nothing
	// for any item, exactly as every per-item call would have failed.
	last := group[len(group)-1]
	recs, _ := r.hub.MatchRecordsIn(p.idx, p.enc, last.perPart[p.idx][:0])
	last.perPart[p.idx] = recs
	lo := 0
	for _, job := range group {
		job.parts[p.idx] = recordView{recs: recs, lo: lo}
		lo += len(job.blobs)
	}
	if !sealed {
		clear(p.enc) // the blobs are frame bytes: pin none past the group
	}
}

// open authenticates blob under sk with the partition's opener, rebuilt
// when sk changes, appends the plaintext to buf and charges the AES pass
// to the slice's meter. The caller holds p.mu, inside p's enclave: the
// plaintext never leaves it.
func (p *partition) open(sk *scrypto.SymmetricKey, blob, buf []byte) ([]byte, error) {
	if p.openerKey != sk {
		opener, err := scrypto.NewOpener(sk)
		if err != nil {
			return nil, err
		}
		p.opener, p.openerKey = opener, sk
	}
	plain, err := p.opener.OpenAppend(blob, buf)
	if err != nil {
		return nil, err
	}
	p.slice.Accessor().Meter().ChargeAES(len(blob))
	return plain, nil
}

// deliveryMerger joins the per-slice match results in publication
// order and hands each item to the delivery layer, recycling the job
// once delivered. It is the only goroutine that forwards matches, so
// per-client delivery order equals publication order even though the
// slices match out of lockstep, and it owns the delivery fan-out
// scratch. Under OverflowPause it waits for a full client queue;
// otherwise it never blocks on a client, so one merger keeps up with k
// matchers.
func (r *Router) deliveryMerger() {
	defer close(r.mergerDone)
	var fan fanout
	for job := range r.merge {
		if job.flush != nil {
			// Migration barrier sentinel: everything queued before it
			// has been delivered; signal and move on.
			close(job.flush)
			continue
		}
		<-job.done
		r.deliver(&fan, job.parts, job.payloads, job.epoch, r.dedupActive.Load())
		r.releaseJob(job)
	}
}
