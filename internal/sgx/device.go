// Package sgx simulates the Intel Software Guard Extensions substrate
// that the paper's routing engine runs on. It reproduces the pieces of
// SGX that SCBR's design and evaluation depend on:
//
//   - enclave construction with a real measurement chain
//     (ECREATE/EADD/EEXTEND/EINIT → MRENCLAVE) and signer identity
//     (MRSIGNER),
//   - an EPC (enclave page cache) with a hard capacity, CLOCK page
//     eviction, and genuine AES-GCM encryption plus anti-replay version
//     counters for evicted pages (the EWB/ELD instructions),
//   - per-access cost accounting through internal/simmem: MEE charges
//     on LLC misses, page-fault charges on EPC misses, and
//     EENTER/EEXIT charges on ecalls,
//   - sealing keys bound to enclave or signer identity, and platform
//     monotonic counters for rollback protection,
//   - local attestation reports MAC'd with a device-bound key
//     (internal/attest turns these into quotes).
//
// SGX hardware is unavailable in this environment, so this package is
// the substitution: every protection mechanism is implemented as real,
// testable code; only latencies come from the calibrated cost model
// (internal/simmem, whose CostModel notes each constant's provenance).
package sgx

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"

	"scbr/internal/simmem"
)

// Device models one SGX-capable CPU package: it holds the fused root
// secret from which sealing and report keys derive, and the platform's
// monotonic counters. Enclaves are launched on a device.
type Device struct {
	rootKey [32]byte
	cost    simmem.CostModel

	mu       sync.Mutex
	counters map[string]uint64
}

// NewDevice creates a device. A deterministic seed may be supplied for
// tests; with a nil seed the root key is drawn from crypto/rand.
func NewDevice(seed []byte, cost simmem.CostModel) (*Device, error) {
	d := &Device{cost: cost, counters: make(map[string]uint64)}
	if seed == nil {
		if _, err := io.ReadFull(rand.Reader, d.rootKey[:]); err != nil {
			return nil, fmt.Errorf("sgx: generating device root key: %w", err)
		}
	} else {
		d.rootKey = sha256.Sum256(seed)
	}
	return d, nil
}

// Cost returns the device's cycle cost model.
func (d *Device) Cost() simmem.CostModel { return d.cost }

// deriveKey derives a device-bound key for the given purpose and
// binding (an enclave identity component).
func (d *Device) deriveKey(purpose string, binding []byte) []byte {
	mac := hmac.New(sha256.New, d.rootKey[:])
	mac.Write([]byte(purpose))
	mac.Write(binding)
	return mac.Sum(nil)
}

// IncrementCounter increments the named platform monotonic counter and
// returns the new value. Counters survive enclave restarts, which is
// what lets an enclave detect replayed sealed state (§2 of the paper).
func (d *Device) IncrementCounter(name string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counters[name]++
	return d.counters[name]
}

// ReadCounter returns the current value of the named counter (0 if it
// was never incremented).
func (d *Device) ReadCounter(name string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters[name]
}
