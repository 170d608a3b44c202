// The correctness oracle. Every event published must reach the
// measured listener exactly once, in publication order, with the
// payload bytes that were sent, and named for exactly the listener
// subscriptions the brute-force evaluator says it matches. Each
// violation is one failed operation.

package main

import (
	"encoding/binary"
	"fmt"
	"strings"

	"scbr/internal/broker"
)

// boundaryEps is how close (in scaled attribute units) an event may
// sit to a subscription bound before the oracle stops holding ASPE to
// the exact answer: ASPE's sign test carries a stated floating-point
// tolerance (aspe.Scheme.Tolerance), several orders of magnitude below
// this.
const boundaryEps = 1e-6

// violationKind names one kind of oracle finding.
type violationKind int

const (
	vOutOfOrder violationKind = iota
	vDuplicate
	vNeverDelivered
	vWrongMatch
	vCorrupt
	vDeliveryErrors
	vChurnFailed
	vPublishFailed
	vProbeMiscount
	vWalkMiscount
	vGaps            // cursor jumps seen; the events behind them are counted above
	vSkippedBoundary // aspe: events too close to a bound to hold to the exact answer
	numViolationKinds

	numFailureKinds = vGaps // the kinds before it are failed operations; it and the ones after are not
)

var violationNames = [numViolationKinds]string{
	"out_of_order", "duplicate", "never_delivered", "wrong_match", "corrupt", "delivery_errors",
	"churn_failed", "publish_failed", "probe_miscount", "walk_miscount", "gaps", "skipped_boundary",
}

// violations counts the oracle's findings by kind.
type violations [numViolationKinds]uint64

// failed is the number of failed operations. Gaps and skipped events
// are not added: a gap's events are already counted as out of order or
// never delivered, and a skipped event is not an error.
func (v *violations) failed() uint64 {
	var n uint64
	for _, c := range v[:numFailureKinds] {
		n += c
	}
	return n
}

// add folds another run's findings into v.
func (v *violations) add(o violations) {
	for k := range v {
		v[k] += o[k]
	}
}

func (v *violations) String() string {
	var b strings.Builder
	for k, name := range violationNames {
		fmt.Fprintf(&b, "%s=%d ", name, v[k])
	}
	return strings.TrimSuffix(b.String(), " ")
}

// checker verifies the match-all subscription's delivery stream. It is
// owned by the consuming goroutine; the driver reads it only after a
// drain, which orders the two.
type checker struct {
	allID, probeID uint64
	payload        int // bytes every payload must have

	next    uint64              // the sequence number expected next
	missing map[uint64]struct{} // sequence numbers jumped over and not yet seen
	v       violations
}

func newChecker(allID, probeID uint64, payload int) *checker {
	return &checker{allID: allID, probeID: probeID, payload: payload, missing: make(map[uint64]struct{})}
}

// observe judges one delivery and returns its decoded header fields;
// ok is false when the delivery could not be attributed to an event.
func (c *checker) observe(d broker.Delivery) (seq uint64, sendNanos int64, flags byte, ok bool) {
	if d.Err != nil {
		c.v[vDeliveryErrors]++
		return 0, 0, 0, false
	}
	if len(d.Payload) < payloadHeader {
		c.v[vCorrupt]++
		return 0, 0, 0, false
	}
	seq = binary.LittleEndian.Uint64(d.Payload[0:8])
	sendNanos = int64(binary.LittleEndian.Uint64(d.Payload[8:16]))
	flags = d.Payload[16]
	switch {
	case seq == c.next:
		c.next++
	case seq > c.next:
		c.v[vGaps]++
		for s := c.next; s < seq; s++ {
			c.missing[s] = struct{}{}
		}
		c.next = seq + 1
	default:
		if _, late := c.missing[seq]; late {
			delete(c.missing, seq)
			c.v[vOutOfOrder]++
		} else {
			c.v[vDuplicate]++
		}
	}
	if len(d.Payload) != c.payload || !payloadPadOK(d.Payload, seq) {
		c.v[vCorrupt]++
	}
	var sawAll, sawProbe bool
	for _, id := range d.SubIDs {
		switch id {
		case c.allID:
			sawAll = true
		case c.probeID:
			sawProbe = true
		default:
			c.v[vWrongMatch]++ // a subscription this listener does not hold
		}
	}
	if !sawAll {
		c.v[vWrongMatch]++
	}
	if flags&flagProbeBoundary != 0 {
		c.v[vSkippedBoundary]++
	} else if sawProbe != (flags&flagProbe != 0) {
		c.v[vWrongMatch]++
	}
	return seq, sendNanos, flags, true
}

// finish accounts for everything published but never seen.
func (c *checker) finish(published uint64) {
	c.v[vNeverDelivered] += uint64(len(c.missing))
	if published > c.next {
		c.v[vNeverDelivered] += published - c.next
	}
	c.missing = make(map[uint64]struct{})
	c.next = published
}
