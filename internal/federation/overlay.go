// The overlay state machine: which peers exist, what interests they
// announced (their digests), what this router has announced to them,
// and the loop-safety bookkeeping for forwarded publications. The
// overlay is transport-agnostic — the broker owns connections and
// hands sealed frames back and forth — and conceptually lives inside
// the enclave: the broker enters an enclave before calling the
// plaintext-touching methods, exactly as it does for matching.

package federation

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"scbr/internal/pubsub"
	"scbr/internal/scrypto"
)

// announceCoalesce batches digest recomputation: registrations landing
// within this window produce one incremental update instead of one
// per subscription, which keeps the containment compaction (O(n²) in
// the announced set) off the registration hot path.
const announceCoalesce = 2 * time.Millisecond

// Peer is one attested link to a neighbouring router. The overlay
// tracks the digest state per link; the broker stores its connection
// handle in Tag.
type Peer struct {
	name string // remote router ID, as claimed in its hello/welcome
	// sealer and opener hold the link key's AEAD, built once at attach.
	// Both are read-only and safe for concurrent use, so the announcer
	// (sealing under o.mu) and the link's read loop (opening outside
	// it) share them without a lock of their own.
	sealer *scrypto.Sealer
	opener *scrypto.Opener

	// learned is the digest the peer announced to us — the interests
	// reachable through it. announced is what we last announced to it.
	learned    map[string]*entry
	announced  map[string]*entry
	outVersion uint64
	inVersion  uint64

	// Tag is an opaque transport handle owned by the broker.
	Tag any
}

// Name returns the peer's claimed router ID.
func (p *Peer) Name() string { return p.name }

// Outbound is one sealed frame the broker must send to a peer.
type Outbound struct {
	Peer  *Peer
	Frame []byte
}

// Overlay is one router's view of the federation.
type Overlay struct {
	routerID string
	ttl      int
	schema   *pubsub.Schema
	// emit delivers a sealed SUB_DIGEST frame to a peer's transport.
	// Called from the overlay's announcer goroutine; must not block.
	emit func(p *Peer, frame []byte)

	mu    sync.Mutex
	local map[string]*entry // canonical key → refcounted local entry
	bySub map[uint64]string // local subscription ID → canonical key
	peers map[*Peer]bool
	seq   uint64
	dd    *dedup

	digestSent, digestRecv       uint64
	forwarded, withheld          uint64
	forwardsDropped              uint64
	receivedForwards             uint64
	suppressedDup, suppressedTTL uint64

	dirty chan struct{}
	quit  chan struct{}
	done  chan struct{}
}

// NewOverlay builds the overlay for routerID. schema is the router's
// attribute intern table (shared with its matching engines); emit is
// the digest transport hook.
func NewOverlay(routerID string, ttl int, schema *pubsub.Schema, emit func(p *Peer, frame []byte)) *Overlay {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	o := &Overlay{
		routerID: routerID,
		ttl:      ttl,
		schema:   schema,
		emit:     emit,
		local:    make(map[string]*entry),
		bySub:    make(map[uint64]string),
		peers:    make(map[*Peer]bool),
		dd:       newDedup(),
		dirty:    make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go o.announcer()
	return o
}

// RouterID returns this router's overlay identity.
func (o *Overlay) RouterID() string { return o.routerID }

// HasPeers reports whether any attested link is attached — the cheap
// gate the broker checks before paying an enclave entry to evaluate
// forwarding for a publication.
func (o *Overlay) HasPeers() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.peers) > 0
}

// Close stops the announcer. Pending digest updates are dropped — a
// closing router's peers observe the link teardown instead.
func (o *Overlay) Close() {
	o.mu.Lock()
	select {
	case <-o.quit:
	default:
		close(o.quit)
	}
	o.mu.Unlock()
	<-o.done
}

// AttachPeer registers a completed handshake: the peer enters the
// digest fan-out and a full announcement is scheduled for it. It fails
// only if the link key's cipher cannot be built.
func (o *Overlay) AttachPeer(name string, key *scrypto.SymmetricKey, tag any) (*Peer, error) {
	sealer, err := scrypto.NewSealer(key)
	if err != nil {
		return nil, err
	}
	opener, err := scrypto.NewOpener(key)
	if err != nil {
		return nil, err
	}
	p := &Peer{
		name:      name,
		sealer:    sealer,
		opener:    opener,
		learned:   make(map[string]*entry),
		announced: make(map[string]*entry),
		Tag:       tag,
	}
	o.mu.Lock()
	o.peers[p] = true
	o.mu.Unlock()
	o.markDirty()
	return p, nil
}

// DetachPeer removes a severed link; interests learned from it stop
// influencing forwarding and announcements to the remaining peers.
func (o *Overlay) DetachPeer(p *Peer) {
	o.mu.Lock()
	delete(o.peers, p)
	o.mu.Unlock()
	o.markDirty()
}

// AddLocal folds one accepted local registration into the digest
// state. Duplicate subscriptions (same canonical form) collapse into
// one refcounted entry.
func (o *Overlay) AddLocal(subID uint64, spec pubsub.SubscriptionSpec) error {
	key, e, err := canonicalize(o.schema, spec)
	if err != nil {
		return err
	}
	o.mu.Lock()
	if cur, ok := o.local[key]; ok {
		cur.refs++
	} else {
		e.refs = 1
		o.local[key] = e
	}
	o.bySub[subID] = key
	o.mu.Unlock()
	o.markDirty()
	return nil
}

// RemoveLocal drops one local registration from the digest state.
func (o *Overlay) RemoveLocal(subID uint64) {
	o.mu.Lock()
	key, ok := o.bySub[subID]
	if ok {
		delete(o.bySub, subID)
		if cur, found := o.local[key]; found {
			cur.refs--
			if cur.refs <= 0 {
				delete(o.local, key)
			}
		}
	}
	o.mu.Unlock()
	if ok {
		o.markDirty()
	}
}

// HandleDigest applies one sealed SUB_DIGEST frame from a peer and
// schedules re-announcement to the other peers (their view of what is
// reachable through us includes what is reachable through p).
func (o *Overlay) HandleDigest(p *Peer, frame []byte) error {
	plain, err := p.opener.OpenAppend(frame, nil)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadUpdate, err)
	}
	var u digestUpdate
	if err := json.Unmarshal(plain, &u); err != nil {
		return fmt.Errorf("%w: %v", ErrBadUpdate, err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.peers[p] {
		return nil // link already detached
	}
	if u.Full {
		p.learned = make(map[string]*entry, len(u.Add))
	}
	for _, enc := range u.Add {
		key, e, err := decodeEntry(o.schema, enc)
		if err != nil {
			return err
		}
		p.learned[key] = e
	}
	for _, enc := range u.Remove {
		delete(p.learned, string(enc))
	}
	p.inVersion = u.Version
	o.digestRecv++
	o.markDirtyLocked()
	return nil
}

// ForwardLocal decides the federation fan-out for one locally
// published item: the publication is forwarded to exactly the peers
// whose announced digest matches the decrypted header. It stamps the
// origin + sequence envelope and seals one frame per target link.
func (o *Overlay) ForwardLocal(header, payload []byte, epoch uint64, ev *pubsub.Event) ([]Outbound, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	fp := forwardPub{
		Origin:  o.routerID,
		Seq:     o.seq,
		TTL:     o.ttl,
		Header:  header,
		Payload: payload,
		Epoch:   epoch,
	}
	return o.fanOutLocked(fp, ev, nil)
}

// HandleForward processes one sealed FWD_PUB frame from a peer. It
// returns the decoded publication when this is its first sighting
// (the caller routes it into local matching) and the sealed frames
// for the next hops. decode recovers the plaintext header event from
// the SK-encrypted header; it runs inside the caller's enclave entry,
// like every other header decryption.
func (o *Overlay) HandleForward(from *Peer, frame []byte,
	decode func(header []byte) (*pubsub.Event, error)) (*ForwardedPublication, []Outbound, error) {
	plain, err := from.opener.OpenAppend(frame, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadForward, err)
	}
	var fp forwardPub
	if err := json.Unmarshal(plain, &fp); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadForward, err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if fp.Origin == o.routerID {
		// Our own publication come full circle: suppress entirely.
		o.suppressedDup++
		return nil, nil, nil
	}
	fp.TTL--
	fresh, improved := o.dd.observe(fp.Origin, fp.Seq, fp.TTL)
	if !fresh && !improved {
		// A duplicate copy along a second path with no more hop budget
		// than an earlier one: suppress entirely.
		o.suppressedDup++
		return nil, nil, nil
	}
	var accepted *ForwardedPublication
	if fresh {
		o.receivedForwards++
		accepted = &ForwardedPublication{
			Origin:  fp.Origin,
			Seq:     fp.Seq,
			Header:  fp.Header,
			Payload: fp.Payload,
			Epoch:   fp.Epoch,
		}
	} else {
		// improved: already delivered here, but this copy carries more
		// hop budget than the one that arrived first — re-forward it
		// (never re-deliver) so routers beyond the earlier copy's TTL
		// horizon are still reached.
		o.suppressedDup++
	}
	if fp.TTL <= 0 {
		o.suppressedTTL++
		return accepted, nil, nil
	}
	ev, err := decode(fp.Header)
	if err != nil {
		// Unprovisioned router or tampered header: deliver the attempt
		// to the local pipeline (which applies the same checks), but
		// re-forward nothing — we cannot consult digests blind.
		return accepted, nil, nil
	}
	outs, err := o.fanOutLocked(fp, ev, from)
	return accepted, outs, err
}

// fanOutLocked seals fp for every peer whose digest matches ev,
// excluding the arrival link and any link to the origin router.
func (o *Overlay) fanOutLocked(fp forwardPub, ev *pubsub.Event, from *Peer) ([]Outbound, error) {
	raw, err := json.Marshal(&fp)
	if err != nil {
		return nil, fmt.Errorf("federation: encoding forward: %w", err)
	}
	var outs []Outbound
	for p := range o.peers {
		if p == from || p.name == fp.Origin {
			continue
		}
		if !anyMatch(p.learned, ev) {
			o.withheld++
			continue
		}
		frame, err := p.sealer.Seal(raw)
		if err != nil {
			return nil, fmt.Errorf("federation: sealing forward: %w", err)
		}
		outs = append(outs, Outbound{Peer: p, Frame: frame})
		o.forwarded++
	}
	return outs, nil
}

// NoteForwardDropped records a forwarded publication the transport
// could not hand to a peer link (outbound queue full). The overlay's
// forwarding is fire-and-forget, so the frame is simply lost; the
// counter keeps the loss visible instead of silent.
func (o *Overlay) NoteForwardDropped() {
	o.mu.Lock()
	o.forwardsDropped++
	o.mu.Unlock()
}

// Snapshot returns the overlay's counters.
func (o *Overlay) Snapshot() Counters {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := Counters{
		Peers:                 len(o.peers),
		LocalEntries:          len(o.local),
		DigestUpdatesSent:     o.digestSent,
		DigestUpdatesReceived: o.digestRecv,
		Forwarded:             o.forwarded,
		Withheld:              o.withheld,
		ForwardsDropped:       o.forwardsDropped,
		ReceivedForwards:      o.receivedForwards,
		SuppressedDuplicates:  o.suppressedDup,
		SuppressedTTL:         o.suppressedTTL,
	}
	for p := range o.peers {
		c.RemoteEntries += len(p.learned)
		c.AnnouncedEntries += len(p.announced)
	}
	return c
}

// markDirty schedules an announcement refresh.
func (o *Overlay) markDirty() {
	select {
	case o.dirty <- struct{}{}:
	default:
	}
}

// markDirtyLocked is markDirty for callers holding o.mu (the dirty
// channel never blocks, so no lock ordering is involved; the split
// exists only for symmetry with the other helpers).
func (o *Overlay) markDirtyLocked() { o.markDirty() }

// announcer is the overlay's single digest-update producer: it wakes
// on dirt, coalesces briefly, recomputes each peer's announcement, and
// emits incremental updates for whatever changed. One producer per
// overlay means updates reach each link in a consistent order. The
// coalescing window grows with the cost of the previous refresh (the
// containment compaction is quadratic in the announced set), so a
// registration burst amortises into a few batched updates instead of
// one recomputation per subscription.
func (o *Overlay) announcer() {
	defer close(o.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	coalesce := announceCoalesce
	for {
		select {
		case <-o.quit:
			return
		case <-o.dirty:
		}
		timer.Reset(coalesce)
		select {
		case <-o.quit:
			return
		case <-timer.C:
		}
		// Fold in any dirt that accumulated during the window.
		select {
		case <-o.dirty:
		default:
		}
		start := time.Now()
		for _, ob := range o.refreshAnnouncements() {
			o.emit(ob.Peer, ob.Frame)
		}
		if cost := time.Since(start); cost > announceCoalesce {
			coalesce = cost // self-throttle: spend ≤ half the time refreshing
		} else {
			coalesce = announceCoalesce
		}
	}
}

// refreshAnnouncements recomputes every peer's announcement set and
// returns the sealed incremental updates for the links whose set
// changed.
func (o *Overlay) refreshAnnouncements() []Outbound {
	o.mu.Lock()
	defer o.mu.Unlock()
	var outs []Outbound
	for p := range o.peers {
		next := o.announcementForLocked(p)
		u := digestUpdate{}
		for k, e := range next {
			if _, ok := p.announced[k]; !ok {
				u.Add = append(u.Add, e.enc)
			}
		}
		for k, e := range p.announced {
			if _, ok := next[k]; !ok {
				u.Remove = append(u.Remove, e.enc)
			}
		}
		if p.outVersion == 0 {
			u.Full = true
		} else if len(u.Add) == 0 && len(u.Remove) == 0 {
			continue
		}
		p.outVersion++
		u.Version = p.outVersion
		p.announced = next
		raw, err := json.Marshal(&u)
		if err != nil {
			continue // cannot happen: update fields are plain data
		}
		frame, err := p.sealer.Seal(raw)
		if err != nil {
			continue
		}
		o.digestSent++
		outs = append(outs, Outbound{Peer: p, Frame: frame})
	}
	return outs
}

// announcementForLocked computes what peer p should be told is
// reachable through this router: the local subscriptions plus
// everything learned from the *other* peers (split horizon — p is
// never told about interests it announced itself), compacted to the
// ⊒-maximal elements.
func (o *Overlay) announcementForLocked(p *Peer) map[string]*entry {
	pool := make(map[string]*entry, len(o.local))
	for k, e := range o.local {
		pool[k] = e
	}
	for q := range o.peers {
		if q == p {
			continue
		}
		for k, e := range q.learned {
			if _, ok := pool[k]; !ok {
				pool[k] = e
			}
		}
	}
	return maximal(pool)
}
