// Seeded enclave-boundary violations against the real streamhub and
// scheme types: every marked line must be diagnosed.
package enclavemeter_bad

import (
	"scbr/internal/scheme"
	"scbr/internal/sgx"
	"scbr/internal/streamhub"
)

// nakedHubTouch matches against the store with no enclave entry at
// all: the EPC cost model never sees it.
func nakedHubTouch(h *streamhub.Hub, encs [][]byte) {
	h.MatchEncodedBatchIn(0, encs, nil) // want `MatchEncodedBatchIn touches the matcher store outside the metered enclave boundary`
}

// nakedSliceTouch drives the scheme.Slice surface directly.
func nakedSliceTouch(s scheme.Slice, enc []byte) {
	s.RegisterEncodedAssigned(enc, 1, 7) // want `RegisterEncodedAssigned touches the matcher store outside the metered enclave boundary`
}

// nakedInsertByID replays or migrates a subscription under its issued
// ID — the hub's one insert-by-ID — without entering the slice's
// enclave.
func nakedInsertByID(h *streamhub.Hub, enc []byte) {
	h.RegisterEncodedAssigned(0, enc, 1, 7) // want `RegisterEncodedAssigned touches the matcher store outside the metered enclave boundary`
}

// escapedGoroutine spawns a goroutine from inside the Ecall body: the
// literal outlives the enclave entry, so its store touch is unmetered.
func escapedGoroutine(e *sgx.Enclave, h *streamhub.Hub) {
	_ = e.Ecall(func() error {
		go func() {
			h.UnregisterIn(1) // want `UnregisterIn touches the matcher store outside the metered enclave boundary`
		}()
		return nil
	})
}

// afterTheCall touches the store in the same function as an Ecall but
// lexically outside its body.
func afterTheCall(e *sgx.Enclave, s scheme.Slice, enc []byte) {
	_ = e.Ecall(func() error { return nil })
	s.MatchEncodedBatch([][]byte{enc}, nil) // want `MatchEncodedBatch touches the matcher store outside the metered enclave boundary`
}

// unjustifiedMarker carries the boundary marker with no reason — the
// marker itself is the finding, and it does not exempt the body.
//
// scbr:vet enclave-boundary
func unjustifiedMarker(h *streamhub.Hub) { // want `enclave-boundary marker without justification`
	h.DropCopy(0, 1)
}
