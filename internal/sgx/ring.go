package sgx

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// This file implements the paper's §6 proposal of "implementing
// message exchanges at the enclave border": a bounded
// single-producer/single-consumer ring in untrusted memory through
// which the host hands messages to an enclave worker thread that
// entered once and stays inside. Steady-state message delivery then
// costs two atomic operations and a copy instead of an EENTER+EEXIT
// round trip per message (~7 k cycles in the calibrated model) — the
// "switchless call" pattern of later SGX runtimes.
//
// The ring carries ciphertext only (SCBR headers are AES-encrypted
// under SK before they leave the publisher), so placing it in
// untrusted memory leaks nothing beyond arrival timing, which the
// per-message ecall leaks identically.

// ErrRingClosed is returned by Push after Close.
var ErrRingClosed = errors.New("sgx: ring closed")

// ringSlot is one exchange cell. seq follows the bounded-queue
// protocol: seq == pos means the slot is free for the producer writing
// position pos; seq == pos+1 means it holds the message of position
// pos for the consumer.
type ringSlot struct {
	seq  atomic.Uint64
	data []byte
}

// Ring is the untrusted-memory message ring. Ownership is one ring
// per enclave worker: the producer side belongs to a single logical
// producer on the host and the consumer side to the resident
// in-enclave worker. Within that ownership discipline the exchange
// stays lock-free: two atomic operations and a copy per message. The
// router prices this exchange (simmem's SwitchlessPollCycles) without
// making the copy — its workers are handed decoded messages — so the
// ring's users are the enclave-border ablation (internal/exp) and the
// benchmark's per-layer walk.
type Ring struct {
	mask   uint64
	slots  []ringSlot
	_      [7]uint64 // keep producer and consumer positions on separate lines
	tail   atomic.Uint64
	_      [7]uint64
	head   atomic.Uint64
	closed atomic.Bool
}

// NewRing builds a ring with at least the requested capacity (rounded
// up to a power of two, minimum 2).
func NewRing(capacity int) (*Ring, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("sgx: invalid ring capacity %d", capacity)
	}
	size := 2
	for size < capacity {
		size <<= 1
	}
	r := &Ring{mask: uint64(size - 1), slots: make([]ringSlot, size)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r, nil
}

// Capacity returns the ring's slot count.
func (r *Ring) Capacity() int { return len(r.slots) }

// TryPush copies msg into the ring if a slot is free. It returns
// ErrRingClosed after Close, and ok=false (no error) when the ring is
// momentarily full.
func (r *Ring) TryPush(msg []byte) (ok bool, err error) {
	if r.closed.Load() {
		return false, ErrRingClosed
	}
	pos := r.tail.Load()
	slot := &r.slots[pos&r.mask]
	if slot.seq.Load() != pos {
		return false, nil // consumer has not freed this slot yet
	}
	slot.data = append(slot.data[:0], msg...)
	slot.seq.Store(pos + 1)
	r.tail.Store(pos + 1)
	return true, nil
}

// Push blocks until msg is enqueued or the ring is closed.
func (r *Ring) Push(msg []byte) error {
	for spins := 0; ; spins++ {
		ok, err := r.TryPush(msg)
		if err != nil || ok {
			return err
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// TryPop moves the next message into buf (growing it as needed) and
// returns the filled slice. ok is false when the ring is momentarily
// empty; closed is true once Close was called and the ring is fully
// drained.
func (r *Ring) TryPop(buf []byte) (msg []byte, ok, closed bool) {
	pos := r.head.Load()
	slot := &r.slots[pos&r.mask]
	if slot.seq.Load() != pos+1 {
		if r.closed.Load() && r.head.Load() == r.tail.Load() {
			return buf[:0], false, true
		}
		return buf[:0], false, false
	}
	msg = append(buf[:0], slot.data...)
	slot.seq.Store(pos + uint64(len(r.slots)))
	r.head.Store(pos + 1)
	return msg, true, false
}

// Pop blocks until a message arrives or the ring closes empty. The
// returned slice reuses buf's storage.
func (r *Ring) Pop(buf []byte) ([]byte, bool) {
	for spins := 0; ; spins++ {
		msg, ok, closed := r.TryPop(buf)
		if ok {
			return msg, true
		}
		if closed {
			return nil, false
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// Close marks the ring closed. The consumer drains remaining messages
// and then observes the close; further pushes fail.
func (r *Ring) Close() { r.closed.Store(true) }

// Len reports the number of queued messages (approximate under
// concurrency).
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// ServeRing enters the enclave once and consumes the ring until it is
// closed and drained, invoking handler inside the enclave for every
// message. It charges a single enclave transition (the worker's
// EENTER on start and EEXIT on return form one round trip) plus the
// calibrated switchless poll cost per message — the steady-state cost
// structure of the §6 "message exchanges at the enclave border"
// design. A handler error stops consumption and is returned.
//
// ServeRing charges the enclave's heap meter, which is not safe for
// concurrent use: while it runs, no other goroutine may perform
// ecalls or metered accesses on this enclave. Callers that interleave
// ring consumption with other enclave work (like the broker's router)
// must run their own loop and serialise meter access themselves.
func (e *Enclave) ServeRing(r *Ring, handler func(msg []byte) error) error {
	if !e.inited {
		return ErrNotInitialised
	}
	meter := e.acc.meter
	meter.ChargeTransition() // the worker's entry/exit round trip
	var buf []byte
	for {
		msg, ok := r.Pop(buf)
		if !ok {
			return nil
		}
		buf = msg
		meter.Charge(meter.Cost.SwitchlessPollCycles)
		if err := handler(msg); err != nil {
			return err
		}
	}
}
