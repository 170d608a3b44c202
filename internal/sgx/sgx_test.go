package sgx

import (
	"bytes"
	"errors"
	"testing"

	"scbr/internal/scrypto"
	"scbr/internal/simmem"
)

func testDevice(t testing.TB) *Device {
	t.Helper()
	d, err := NewDevice([]byte("test-device"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testSigner(t testing.TB) *scrypto.KeyPair {
	t.Helper()
	kp, err := scrypto.NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func launch(t testing.TB, d *Device, code []byte, cfg EnclaveConfig) *Enclave {
	t.Helper()
	e, err := d.Launch(code, testSigner(t).Public(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLaunchValidation(t *testing.T) {
	d := testDevice(t)
	signer := testSigner(t)
	if _, err := d.Launch(nil, signer.Public(), EnclaveConfig{}); err == nil {
		t.Fatal("empty image accepted")
	}
	if _, err := d.Launch([]byte("code"), nil, EnclaveConfig{}); err == nil {
		t.Fatal("unsigned image accepted")
	}
	if _, err := d.Launch([]byte("code"), signer.Public(), EnclaveConfig{EPCBytes: 100}); err == nil {
		t.Fatal("sub-page EPC accepted")
	}
}

func TestMeasurementDeterministicAndSensitive(t *testing.T) {
	d := testDevice(t)
	signer := testSigner(t)
	code := bytes.Repeat([]byte("scbr filter v1 "), 2000)
	e1, err := d.Launch(code, signer.Public(), EnclaveConfig{ISVProdID: 1, ISVSVN: 2})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.Launch(code, signer.Public(), EnclaveConfig{ISVProdID: 1, ISVSVN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e1.MRENCLAVE() != e2.MRENCLAVE() {
		t.Fatal("same image produced different measurements")
	}
	mutated := bytes.Clone(code)
	mutated[5000] ^= 1
	e3, err := d.Launch(mutated, signer.Public(), EnclaveConfig{ISVProdID: 1, ISVSVN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e1.MRENCLAVE() == e3.MRENCLAVE() {
		t.Fatal("modified image produced identical measurement")
	}
	e4, err := d.Launch(code, signer.Public(), EnclaveConfig{ISVProdID: 1, ISVSVN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e1.MRENCLAVE() == e4.MRENCLAVE() {
		t.Fatal("ISVSVN change did not affect measurement")
	}
	other := testSigner(t)
	e5, err := d.Launch(code, other.Public(), EnclaveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if e1.MRSIGNER() == e5.MRSIGNER() {
		t.Fatal("different signers produced identical MRSIGNER")
	}
}

func TestEcallChargesTransition(t *testing.T) {
	e := launch(t, testDevice(t), []byte("code"), EnclaveConfig{})
	before := e.Memory().Meter().C
	ran := false
	if err := e.Ecall(func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("ecall body did not run")
	}
	delta := e.Memory().Meter().C.Sub(before)
	if delta.Transitions != 1 {
		t.Fatalf("Transitions = %d, want 1", delta.Transitions)
	}
	if delta.Cycles != simmem.DefaultCost().EnclaveTransitionCycles {
		t.Fatalf("transition cycles = %d", delta.Cycles)
	}
}

func TestEnclaveMemoryRoundTrip(t *testing.T) {
	e := launch(t, testDevice(t), []byte("code"), EnclaveConfig{})
	mem := e.Memory()
	off, err := mem.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5C}, 200)
	mem.Write(off, want)
	if !bytes.Equal(mem.Read(off, 200), want) {
		t.Fatal("enclave memory round trip failed")
	}
}

// fillPages allocates n pages and writes a recognisable pattern.
func fillPages(t *testing.T, mem *Accessor, n int) []uint64 {
	t.Helper()
	offs := make([]uint64, n)
	buf := make([]byte, simmem.PageSize)
	for i := range offs {
		off, err := mem.Alloc(simmem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i + j)
		}
		mem.Write(off, buf)
		offs[i] = off
	}
	return offs
}

func TestEPCEvictionAndReload(t *testing.T) {
	// 4-page EPC, 10 pages of data: heavy paging, data must survive.
	e := launch(t, testDevice(t), []byte("code"), EnclaveConfig{EPCBytes: 4 * simmem.PageSize})
	mem := e.Memory()
	offs := fillPages(t, mem, 10)
	if mem.ResidentPages() > 4 {
		t.Fatalf("ResidentPages = %d exceeds capacity", mem.ResidentPages())
	}
	if mem.PageFaults() == 0 {
		t.Fatal("no faults despite overcommit")
	}
	for i, off := range offs {
		got := mem.Read(off, simmem.PageSize)
		for j := 0; j < simmem.PageSize; j += 997 {
			if got[j] != byte(i+j) {
				t.Fatalf("page %d corrupted after eviction/reload at byte %d", i, j)
			}
		}
	}
}

func TestEPCFaultsChargePagingCost(t *testing.T) {
	cost := simmem.DefaultCost()
	e := launch(t, testDevice(t), []byte("code"), EnclaveConfig{EPCBytes: 2 * simmem.PageSize})
	mem := e.Memory()
	offs := fillPages(t, mem, 4)
	before := mem.Meter().C
	faultsBefore := mem.PageFaults()
	mem.Read(offs[0], 8) // page 0 was evicted; this faults
	delta := mem.Meter().C.Sub(before)
	if mem.PageFaults() != faultsBefore+1 {
		t.Fatalf("faults = %d, want +1", mem.PageFaults()-faultsBefore)
	}
	if delta.Cycles < cost.PageFaultCycles {
		t.Fatalf("fault charged %d cycles, want ≥ %d", delta.Cycles, cost.PageFaultCycles)
	}
}

func TestEPCDetectsTamperedPage(t *testing.T) {
	e := launch(t, testDevice(t), []byte("code"), EnclaveConfig{EPCBytes: 2 * simmem.PageSize})
	mem := e.Memory()
	offs := fillPages(t, mem, 4)
	page0 := simmem.PageOf(offs[0])
	if !mem.CorruptPageImage(page0) {
		t.Fatal("page 0 unexpectedly resident")
	}
	expectIntegrityPanic(t, page0, func() { mem.Read(offs[0], 8) })
}

func TestEPCDetectsReplayedPage(t *testing.T) {
	e := launch(t, testDevice(t), []byte("code"), EnclaveConfig{EPCBytes: 2 * simmem.PageSize})
	mem := e.Memory()
	offs := fillPages(t, mem, 4)
	page0 := simmem.PageOf(offs[0])
	oldImage, ok := mem.PageImage(page0)
	if !ok {
		t.Fatal("page 0 unexpectedly resident")
	}
	// Fault page 0 back in (valid), modify it, force it out again, then
	// replay the stale image: version counters must catch it.
	buf := make([]byte, simmem.PageSize)
	mem.Write(offs[0], buf)
	fillPages(t, mem, 3) // push page 0 out with a newer version
	if !mem.ReplayPageImage(page0, oldImage) {
		t.Fatal("page 0 not evicted by pressure; CLOCK kept it resident")
	}
	expectIntegrityPanic(t, page0, func() { mem.Read(offs[0], 8) })
}

// expectIntegrityPanic runs reload and fails the test unless it panics
// with an *IntegrityError that names page and wraps an authentication
// failure — any other panic on the reload path is a bug, not a
// detected attack.
func expectIntegrityPanic(t *testing.T, page uint64, reload func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("tampered or replayed page reloaded without integrity failure")
		}
		ie, ok := r.(*IntegrityError)
		if !ok {
			t.Fatalf("panic value %v (%T), want *IntegrityError", r, r)
		}
		if ie.Page != page {
			t.Fatalf("integrity error names page %d, want %d", ie.Page, page)
		}
		if !errors.Is(ie, scrypto.ErrAuthentication) {
			t.Fatalf("integrity error %v does not wrap scrypto.ErrAuthentication", ie)
		}
	}()
	reload()
}

func TestSealUnsealPolicies(t *testing.T) {
	d := testDevice(t)
	signer := testSigner(t)
	code := []byte("router enclave")
	e1, err := d.Launch(code, signer.Public(), EnclaveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.Launch(code, signer.Public(), EnclaveConfig{}) // same identity (restart)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := d.Launch([]byte("different code"), signer.Public(), EnclaveConfig{}) // same signer
	if err != nil {
		t.Fatal(err)
	}

	data := []byte("subscription database snapshot")
	aad := []byte("counter=3")

	blob, err := e1.Seal(SealToMRENCLAVE, data, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.Unseal(blob, aad)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restart unseal failed: %v", err)
	}
	if _, err := e3.Unseal(blob, aad); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatalf("different code unsealed MRENCLAVE blob: %v", err)
	}

	blobSigner, err := e1.Seal(SealToMRSIGNER, data, aad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e3.Unseal(blobSigner, aad); err != nil {
		t.Fatalf("same-signer unseal failed: %v", err)
	}

	// Wrong AAD (rolled-back counter) must fail.
	if _, err := e2.Unseal(blob, []byte("counter=2")); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatalf("stale counter accepted: %v", err)
	}
	// Different device must fail.
	d2, err := NewDevice([]byte("other-device"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	e4, err := d2.Launch(code, signer.Public(), EnclaveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e4.Unseal(blob, aad); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatalf("cross-device unseal succeeded: %v", err)
	}
}

func TestMonotonicCounters(t *testing.T) {
	d := testDevice(t)
	if d.ReadCounter("db") != 0 {
		t.Fatal("fresh counter not zero")
	}
	if d.IncrementCounter("db") != 1 || d.IncrementCounter("db") != 2 {
		t.Fatal("counter increments wrong")
	}
	if d.ReadCounter("db") != 2 {
		t.Fatal("counter read wrong")
	}
	if d.ReadCounter("other") != 0 {
		t.Fatal("counters not independent")
	}
}

func TestLocalReportVerification(t *testing.T) {
	d := testDevice(t)
	signer := testSigner(t)
	prover, err := d.Launch([]byte("prover"), signer.Public(), EnclaveConfig{ISVProdID: 7})
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := d.Launch([]byte("verifier"), signer.Public(), EnclaveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var data ReportData
	copy(data[:], "channel binding hash")
	rep, err := prover.Report(verifier.MRENCLAVE(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !verifier.VerifyReport(rep) {
		t.Fatal("valid report rejected")
	}
	if rep.Body.ISVProdID != 7 || rep.Body.MRENCLAVE != prover.MRENCLAVE() {
		t.Fatal("report body wrong")
	}
	// A report addressed to someone else must not verify.
	other, err := d.Launch([]byte("other"), signer.Public(), EnclaveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	repOther, err := prover.Report(other.MRENCLAVE(), data)
	if err != nil {
		t.Fatal(err)
	}
	if verifier.VerifyReport(repOther) {
		t.Fatal("misaddressed report verified")
	}
	// Tampered body must not verify.
	mutated := *rep
	mutated.Body.ISVSVN++
	if verifier.VerifyReport(&mutated) {
		t.Fatal("tampered report verified")
	}
	// Cross-device reports must not verify.
	d2, err := NewDevice([]byte("other-device"), simmem.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	verifier2, err := d2.Launch([]byte("verifier"), signer.Public(), EnclaveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if verifier2.VerifyReport(rep) {
		t.Fatal("cross-device report verified")
	}
	if verifier.VerifyReport(nil) {
		t.Fatal("nil report verified")
	}
}

func TestReportBodyMarshalRoundTrip(t *testing.T) {
	var data ReportData
	copy(data[:], "payload")
	body := ReportBody{ISVProdID: 3, ISVSVN: 9, Debug: true, Data: data}
	copy(body.MRENCLAVE[:], bytes.Repeat([]byte{1}, 32))
	copy(body.MRSIGNER[:], bytes.Repeat([]byte{2}, 32))
	got, err := UnmarshalReportBody(body.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != body {
		t.Fatalf("round trip mismatch: %+v vs %+v", *got, body)
	}
	if _, err := UnmarshalReportBody([]byte("short")); err == nil {
		t.Fatal("short body accepted")
	}
}

func TestUninitialisedEnclaveRejected(t *testing.T) {
	var e Enclave
	if err := e.Ecall(func() error { return nil }); !errors.Is(err, ErrNotInitialised) {
		t.Fatal("ecall on uninitialised enclave")
	}
	if _, err := e.Seal(SealToMRENCLAVE, nil, nil); !errors.Is(err, ErrNotInitialised) {
		t.Fatal("seal on uninitialised enclave")
	}
	if _, err := e.Unseal(nil, nil); !errors.Is(err, ErrNotInitialised) {
		t.Fatal("unseal on uninitialised enclave")
	}
	if _, err := e.Report([32]byte{}, ReportData{}); !errors.Is(err, ErrNotInitialised) {
		t.Fatal("report on uninitialised enclave")
	}
}
