package sgx

import (
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"scbr/internal/scrypto"
	"scbr/internal/simmem"
)

// EnclaveConfig sets the launch parameters of an enclave.
type EnclaveConfig struct {
	// EPCBytes is the usable enclave page cache capacity. The paper's
	// platform reserves 128 MB for the EPC of which roughly 93 MB are
	// available to applications; DefaultEPCBytes reflects that.
	EPCBytes uint64
	// ISVProdID and ISVSVN identify the product and its security
	// version, both part of the measured identity.
	ISVProdID uint16
	ISVSVN    uint16
	// Debug marks a debug-mode enclave; debug enclaves must never be
	// provisioned with production secrets and attestation verifiers
	// reject them by default.
	Debug bool
}

// DefaultEPCBytes is the application-usable EPC size on the paper's
// machine ("applications can use approximately 90 MB"; the knee in
// Fig. 8 sits just over 90 MB).
const DefaultEPCBytes = 93 << 20

var (
	// ErrNotInitialised indicates use of an enclave before EINIT.
	ErrNotInitialised = errors.New("sgx: enclave not initialised")
	// ErrSealedDataCorrupt indicates unsealing failed authentication.
	ErrSealedDataCorrupt = errors.New("sgx: sealed data corrupt or from a different identity")
)

// Enclave is one launched enclave instance. All trusted SCBR code runs
// "inside" it: memory it allocates lives in the EPC-managed arena, and
// entries from untrusted code go through Ecall, which charges the
// transition cost.
type Enclave struct {
	dev  *Device
	cfg  EnclaveConfig
	meas measurement

	mrenclave [32]byte
	mrsigner  [32]byte
	inited    bool

	acc *Accessor
}

// measurement accumulates the ECREATE/EADD/EEXTEND chain.
type measurement struct {
	h interface {
		Write(p []byte) (int, error)
		Sum(b []byte) []byte
	}
}

// Launch builds, measures, and initialises an enclave from the given
// code image signed by signer. It mirrors the SDK flow: ECREATE sizes
// the enclave, each code page is EADDed and EEXTENDed into the
// measurement, and EINIT freezes MRENCLAVE and records MRSIGNER. The
// simulator verifies no SIGSTRUCT: MRSIGNER is the SHA-256 of the
// signer's raw public key.
func (d *Device) Launch(code []byte, signer *ecdh.PublicKey, cfg EnclaveConfig) (*Enclave, error) {
	if len(code) == 0 {
		return nil, errors.New("sgx: empty enclave image")
	}
	if signer == nil {
		return nil, errors.New("sgx: enclave image must be signed")
	}
	if cfg.EPCBytes == 0 {
		cfg.EPCBytes = DefaultEPCBytes
	}
	if cfg.EPCBytes < simmem.PageSize {
		return nil, fmt.Errorf("sgx: EPC of %d bytes holds no pages", cfg.EPCBytes)
	}

	e := &Enclave{dev: d, cfg: cfg}
	h := sha256.New()
	e.meas.h = h

	// ECREATE: the size and attributes enter the measurement.
	var hdr [16]byte
	copy(hdr[:8], "ECREATE\x00")
	binary.LittleEndian.PutUint64(hdr[8:], cfg.EPCBytes)
	h.Write(hdr[:])
	if cfg.Debug {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	var isv [4]byte
	binary.LittleEndian.PutUint16(isv[:2], cfg.ISVProdID)
	binary.LittleEndian.PutUint16(isv[2:], cfg.ISVSVN)
	h.Write(isv[:])

	// EADD + EEXTEND each page of the image.
	for off := 0; off < len(code); off += simmem.PageSize {
		end := off + simmem.PageSize
		if end > len(code) {
			end = len(code)
		}
		var tag [16]byte
		copy(tag[:8], "EADD\x00\x00\x00\x00")
		binary.LittleEndian.PutUint64(tag[8:], uint64(off))
		h.Write(tag[:])
		h.Write(code[off:end])
	}

	// EINIT: freeze the identity.
	copy(e.mrenclave[:], h.Sum(nil))
	e.mrsigner = sha256.Sum256(signer.Bytes())
	e.inited = true

	// Bring up the EPC-backed heap. The paging key is bound to this
	// enclave instance so evicted pages from one enclave are useless to
	// another.
	pagingKey := d.deriveKey("epc-paging", e.mrenclave[:])[:16]
	meter := simmem.NewMeter(d.cost)
	meter.SetEnclave(true)
	pager := &epc{newPages(cfg.EPCBytes, pagingKey, d.cost, &meter.C)}
	meter.SetPager(pager)
	e.acc = &Accessor{arena: pager.arena, meter: meter, pages: &pager.pages}
	return e, nil
}

// MRENCLAVE returns the enclave's code measurement.
func (e *Enclave) MRENCLAVE() [32]byte { return e.mrenclave }

// MRSIGNER returns the hash of the signer's public key.
func (e *Enclave) MRSIGNER() [32]byte { return e.mrsigner }

// Config returns the launch configuration.
func (e *Enclave) Config() EnclaveConfig { return e.cfg }

// Memory returns the enclave's metered heap accessor. Trusted code
// allocates and reads subscription state exclusively through it.
func (e *Enclave) Memory() *Accessor { return e.acc }

// Ecall enters the enclave, runs fn, and leaves, charging one
// EENTER+EEXIT round trip. This is the call gate of Figure 2.
func (e *Enclave) Ecall(fn func() error) error {
	if !e.inited {
		return ErrNotInitialised
	}
	e.acc.meter.ChargeTransition()
	return fn()
}

// SealPolicy selects the identity a sealed blob is bound to.
type SealPolicy int

// Sealing policies: MRENCLAVE binds to this exact code version,
// MRSIGNER to any enclave from the same vendor.
const (
	SealToMRENCLAVE SealPolicy = iota + 1
	SealToMRSIGNER
)

// Seal encrypts data so only an enclave with the same identity on the
// same device can recover it. aad is authenticated but not encrypted;
// SCBR stores the monotonic-counter value there to detect rollbacks.
func (e *Enclave) Seal(policy SealPolicy, data, aad []byte) ([]byte, error) {
	if !e.inited {
		return nil, ErrNotInitialised
	}
	key, err := e.sealKey(policy)
	if err != nil {
		return nil, err
	}
	blob, err := scrypto.SealGCM(key, data, aad)
	if err != nil {
		return nil, fmt.Errorf("sgx: sealing: %w", err)
	}
	return append([]byte{byte(policy)}, blob...), nil
}

// Unseal recovers data sealed by an enclave with a matching identity.
func (e *Enclave) Unseal(blob, aad []byte) ([]byte, error) {
	if !e.inited {
		return nil, ErrNotInitialised
	}
	if len(blob) < 1 {
		return nil, ErrSealedDataCorrupt
	}
	key, err := e.sealKey(SealPolicy(blob[0]))
	if err != nil {
		return nil, err
	}
	data, err := scrypto.OpenGCM(key, blob[1:], aad)
	if err != nil {
		return nil, ErrSealedDataCorrupt
	}
	return data, nil
}

func (e *Enclave) sealKey(policy SealPolicy) ([]byte, error) {
	switch policy {
	case SealToMRENCLAVE:
		return e.dev.deriveKey("seal-mrenclave", e.mrenclave[:])[:16], nil
	case SealToMRSIGNER:
		return e.dev.deriveKey("seal-mrsigner", e.mrsigner[:])[:16], nil
	default:
		return nil, fmt.Errorf("sgx: unknown seal policy %d", policy)
	}
}

// Device returns the device this enclave runs on (untrusted helpers
// need it for counter services).
func (e *Enclave) Device() *Device { return e.dev }

// Terminate destroys the enclave, mirroring EREMOVE on every page: its
// EPC-backed heap is released and any further Ecall, Report, Seal, or
// Unseal fails with ErrNotInitialised. Callers that launch an enclave
// and then fail before handing it to an owner must terminate it, or
// its EPC pages stay committed for the life of the device.
func (e *Enclave) Terminate() {
	e.inited = false
	if e.acc != nil {
		e.acc.pages = nil
	}
	e.acc = nil
}
