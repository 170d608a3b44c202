// Boundary-respecting store access in the shapes the broker actually
// uses: the enclavemeter analyzer must stay silent here.
package enclavemeter_good

import (
	"scbr/internal/scheme"
	"scbr/internal/sgx"
	"scbr/internal/streamhub"
)

// insideEcall is the canonical charged entry: the literal passed to
// Ecall is the enclave body.
func insideEcall(e *sgx.Enclave, h *streamhub.Hub, encs [][]byte) error {
	return e.Ecall(func() error {
		return h.MatchEncodedBatchIn(0, encs, nil)
	})
}

// sliceInsideEcall drives the scheme surface from within the entry.
func sliceInsideEcall(e *sgx.Enclave, s scheme.Slice, enc []byte) error {
	return e.Ecall(func() error {
		return s.RegisterEncodedAssigned(enc, 1, 7)
	})
}

// insertByIDInsideEcall is restore's and migration's shape: the hub's
// one insert under an issued ID, inside the target slice's entry.
func insertByIDInsideEcall(e *sgx.Enclave, h *streamhub.Hub, enc []byte) error {
	return e.Ecall(func() error {
		return h.RegisterEncodedAssigned(0, enc, 1, 7)
	})
}

// residentWorker declares itself a charged boundary: its enclave entry
// is paid once via ChargeTransition by the ring dispatcher, so per-call
// Ecall wrapping would double-charge.
//
// scbr:vet enclave-boundary: entry charged once by the switchless ring dispatcher before the drain loop
func residentWorker(h *streamhub.Hub, batches [][][]byte) {
	for _, encs := range batches {
		h.MatchEncodedBatchIn(0, encs, nil)
	}
}

// unrelatedCalls never touch the metered surface.
func unrelatedCalls(h *streamhub.Hub) int {
	return h.Partitions()
}
