// Package simmem simulates the memory hierarchy of the paper's
// evaluation machine (Intel i7-6700 Skylake, 3.4 GHz, 8 MB LLC, SGX
// with a 128 MB EPC). The SCBR matching engine performs its real reads
// and writes through this package, which maintains a set-associative
// LLC model and a deterministic cycle counter. All figures in the
// reproduction report simulated time derived from these cycles, which
// makes the experiments machine-independent while preserving the
// paper's crossover points (the 8 MB cache boundary and the ~93 MB EPC
// boundary).
package simmem

import "time"

// CostModel holds the cycle costs of the simulated machine. The default
// values are calibrated against the figures reported in the paper; each
// constant notes its provenance.
type CostModel struct {
	// ClockHz is the simulated core frequency (i7-6700: 3.4 GHz).
	ClockHz float64

	// LLCHitCycles approximates a load served by the cache hierarchy
	// (folding L1/L2/L3 into a single average; Skylake L3 ≈ 40 cycles).
	LLCHitCycles uint64

	// DRAMCycles is the extra cost of an LLC miss served by DRAM
	// (~60 ns ≈ 200 cycles at 3.4 GHz).
	DRAMCycles uint64

	// MEECycles is the additional cost of an LLC miss inside an enclave:
	// the memory encryption engine decrypts the line and verifies the
	// integrity tree. Calibrated so that the in/out-enclave matching
	// ratio on miss-heavy databases lands near the ~1.4× the paper
	// reports at 100 k subscriptions (Fig. 5): with DRAM at 200 cycles,
	// a 130-cycle MEE surcharge bounds the miss-path ratio at 1.54 and
	// the blended ratio (hits, compute, AES) settles around 1.4.
	MEECycles uint64

	// PageFaultCycles is the cost of one EPC paging event (AEX, EWB of
	// the victim, ELD of the target, integrity-tree update; ~7 µs —
	// within the 3–40 µs range reported for SGX paging). Calibrated so
	// that registration at DB ≈ 2.3× EPC runs ≈18× slower inside the
	// enclave (Fig. 8).
	PageFaultCycles uint64

	// MinorFaultCycles is the cost of a soft page fault outside the
	// enclave (first touch of an anonymous mapping).
	MinorFaultCycles uint64

	// EnclaveTransitionCycles is the round-trip EENTER+EEXIT cost of one
	// ecall (~2 µs; Intel reports 7–14 k cycles depending on flush
	// behaviour).
	EnclaveTransitionCycles uint64

	// AESByteCycles is the per-byte cost of AES-CTR with AES-NI, the
	// cipher the paper measures. Envelopes are AES-GCM, CTR plus a
	// GHASH tag; GHASH is deliberately unpriced so the simulated cost
	// stays the paper's: only the envelope's length reaches the meter.
	AESByteCycles float64

	// AESFixedCycles is the fixed per-message cost of decryption,
	// Base64 decoding and deserialisation. The paper measures the whole
	// encryption overhead at <5 µs per operation; 12 k cycles ≈ 3.5 µs
	// leaves the per-byte part within that envelope.
	AESFixedCycles uint64

	// SealFixedCycles is the fixed cost of one in-enclave AES-GCM
	// seal or unseal of a page in the split-memory (user-level paging)
	// layer: key-schedule reuse, IV/tag handling and version
	// bookkeeping, without any AEX or kernel crossing. The stream part
	// is charged per byte via AESByteCycles. Distinct from
	// AESFixedCycles, which also covers Base64 and deserialisation of
	// protocol messages.
	SealFixedCycles uint64

	// SwitchlessPollCycles is the per-message cost of the in-enclave
	// worker polling the untrusted call ring (two atomic loads, a
	// bounds check, and the slot hand-off) in the switchless-call
	// configuration of §6.
	SwitchlessPollCycles uint64

	// MulAddCycles is the cost of one scalar multiply-accumulate in the
	// ASPE matcher (no SIMD in the reference implementation).
	MulAddCycles float64

	// PredicateCycles is the CPU cost of evaluating one decoded
	// predicate against an event (comparison + branch).
	PredicateCycles uint64
}

// DefaultCost returns the calibrated model for the paper's machine.
func DefaultCost() CostModel {
	return CostModel{
		ClockHz:                 3.4e9,
		LLCHitCycles:            40,
		DRAMCycles:              200,
		MEECycles:               130,
		PageFaultCycles:         25_000,
		MinorFaultCycles:        2_000,
		EnclaveTransitionCycles: 7_000,
		AESByteCycles:           1.3,
		AESFixedCycles:          12_000,
		SealFixedCycles:         1_500,
		SwitchlessPollCycles:    150,
		MulAddCycles:            3,
		PredicateCycles:         12,
	}
}

// Duration converts a cycle count into simulated wall time.
func (c CostModel) Duration(cycles uint64) time.Duration {
	return time.Duration(float64(cycles) / c.ClockHz * float64(time.Second))
}

// Micros converts a cycle count into simulated microseconds.
func (c CostModel) Micros(cycles uint64) float64 {
	return float64(cycles) / c.ClockHz * 1e6
}
