package sgx

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"scbr/internal/simmem"
)

func splitMem(t *testing.T, cachePages int) *Accessor {
	t.Helper()
	e := launch(t, testDevice(t), []byte("split code"), EnclaveConfig{})
	mem, err := e.SplitMemory(uint64(cachePages) * simmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

func TestSplitMemoryValidation(t *testing.T) {
	e := launch(t, testDevice(t), []byte("split code"), EnclaveConfig{EPCBytes: 4 * simmem.PageSize})
	if _, err := e.SplitMemory(100); !errors.Is(err, ErrSplitCacheTooSmall) {
		t.Fatalf("sub-page cache: err = %v", err)
	}
	if _, err := e.SplitMemory(8 * simmem.PageSize); !errors.Is(err, ErrSplitCacheTooSmall) {
		t.Fatalf("cache larger than EPC: err = %v", err)
	}
	if _, err := e.SplitMemory(2 * simmem.PageSize); err != nil {
		t.Fatalf("valid cache rejected: %v", err)
	}
	var un Enclave
	if _, err := un.SplitMemory(simmem.PageSize); !errors.Is(err, ErrNotInitialised) {
		t.Fatalf("uninitialised enclave: err = %v", err)
	}
}

func TestSplitEvictionAndReload(t *testing.T) {
	mem := splitMem(t, 4)
	offs := fillPages(t, mem, 10)
	if mem.ResidentPages() > 4 {
		t.Fatalf("ResidentPages = %d exceeds cache budget", mem.ResidentPages())
	}
	if mem.Writebacks() == 0 {
		t.Fatal("no writebacks despite dirty evictions")
	}
	for i, off := range offs {
		got := mem.Read(off, simmem.PageSize)
		for j := 0; j < simmem.PageSize; j += 997 {
			if got[j] != byte(i+j) {
				t.Fatalf("page %d corrupted after seal/unseal at byte %d", i, j)
			}
		}
	}
	// Unlike hardware EPC paging, fresh-page adds are not faults in
	// split mode; only unseals are — and the read-back loop above
	// necessarily unsealed the early pages.
	if mem.UserFaults() == 0 {
		t.Fatal("no user-level faults despite overcommit")
	}
}

func TestSplitCleanEvictionSkipsReseal(t *testing.T) {
	mem := splitMem(t, 2)
	offs := fillPages(t, mem, 4)
	// Every page has been sealed once (dirty on first eviction). Now
	// cycle through all pages read-only, twice: the second pass evicts
	// only clean pages, so the writeback count must not grow.
	for _, off := range offs {
		mem.Read(off, 8)
	}
	wbAfterFirstPass := mem.Writebacks()
	for _, off := range offs {
		mem.Read(off, 8)
	}
	if got := mem.Writebacks(); got != wbAfterFirstPass {
		t.Fatalf("clean evictions resealed pages: writebacks %d → %d", wbAfterFirstPass, got)
	}
	if mem.UserFaults() == 0 {
		t.Fatal("expected user faults from the read cycling")
	}
}

func TestSplitFaultCheaperThanEPCFault(t *testing.T) {
	cost := simmem.DefaultCost()
	mem := splitMem(t, 2)
	offs := fillPages(t, mem, 4)
	// Make the target page clean-resident elsewhere: page of offs[0] is
	// currently sealed. A read faults it in (one unseal; victim may be
	// dirty → at most one seal).
	before := mem.Meter().C
	mem.Read(offs[0], 8)
	delta := mem.Meter().C.Sub(before)
	if delta.UserFaults != 1 {
		t.Fatalf("UserFaults = %d, want 1", delta.UserFaults)
	}
	if delta.PageFaults != 0 {
		t.Fatalf("hardware PageFaults = %d in split mode, want 0", delta.PageFaults)
	}
	if delta.Cycles >= cost.PageFaultCycles {
		t.Fatalf("split fault cost %d cycles ≥ hardware paging cost %d — no saving", delta.Cycles, cost.PageFaultCycles)
	}
}

func TestSplitDetectsTamperedPage(t *testing.T) {
	mem := splitMem(t, 2)
	offs := fillPages(t, mem, 4)
	page0 := simmem.PageOf(offs[0])
	if !mem.CorruptPageImage(page0) {
		t.Fatal("page 0 unexpectedly has no sealed image")
	}
	expectIntegrityPanic(t, page0, func() { mem.Read(offs[0], 8) })
}

func TestSplitDetectsReplayedPage(t *testing.T) {
	mem := splitMem(t, 2)
	offs := fillPages(t, mem, 4)
	page0 := simmem.PageOf(offs[0])
	oldImage, ok := mem.PageImage(page0)
	if !ok {
		t.Fatal("page 0 unexpectedly has no sealed image")
	}
	// Fault page 0 in, dirty it (bumping its version on the next
	// seal), push it out, then replay the stale image.
	buf := make([]byte, simmem.PageSize)
	mem.Write(offs[0], buf)
	fillPages(t, mem, 3)
	if !mem.ReplayPageImage(page0, oldImage) {
		t.Fatal("page 0 not externalised by pressure; CLOCK kept it resident")
	}
	expectIntegrityPanic(t, page0, func() { mem.Read(offs[0], 8) })
}

// TestSplitMatchesPlainSemantics drives identical random access
// sequences through a split accessor under heavy pressure and a plain
// reference accessor: the stored bytes must be indistinguishable.
func TestSplitMatchesPlainSemantics(t *testing.T) {
	split := splitMem(t, 3)
	plain := simmem.NewPlainAccessor(simmem.DefaultCost())

	type slot struct{ off uint64 }
	var splitSlots, plainSlots []slot
	sizes := []int{24, 48, 437, 1024, simmem.PageSize}

	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, simmem.PageSize)
	for step := 0; step < 4000; step++ {
		switch {
		case len(splitSlots) == 0 || rng.Intn(3) == 0:
			n := sizes[rng.Intn(len(sizes))]
			so, err := split.Alloc(n)
			if err != nil {
				t.Fatal(err)
			}
			po, err := plain.Alloc(n)
			if err != nil {
				t.Fatal(err)
			}
			if so != po {
				t.Fatalf("allocation offsets diverged: split %d plain %d", so, po)
			}
			splitSlots = append(splitSlots, slot{so})
			plainSlots = append(plainSlots, slot{po})
			fallthrough
		case rng.Intn(2) == 0:
			i := rng.Intn(len(splitSlots))
			n := 8 + rng.Intn(16)
			rng.Read(buf[:n])
			split.Write(splitSlots[i].off, buf[:n])
			plain.Write(plainSlots[i].off, buf[:n])
		default:
			i := rng.Intn(len(splitSlots))
			got := split.Read(splitSlots[i].off, 8)
			want := plain.Read(plainSlots[i].off, 8)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: split bytes %x, plain bytes %x", step, got, want)
			}
		}
	}
	if split.UserFaults() == 0 {
		t.Fatal("pressure workload generated no user faults; test is vacuous")
	}
}

// TestSplitWriteReadProperty checks, via testing/quick, that any
// pattern written through the split accessor is read back intact even
// when the page has been sealed and unsealed in between.
func TestSplitWriteReadProperty(t *testing.T) {
	mem := splitMem(t, 2)
	// Pre-allocate a pool of offsets larger than the cache so seals
	// happen constantly.
	offs := make([]uint64, 8)
	for i := range offs {
		off, err := mem.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		offs[i] = off
	}
	property := func(idx uint8, payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{0xA5}
		}
		if len(payload) > 256 {
			payload = payload[:256]
		}
		off := offs[int(idx)%len(offs)]
		mem.Write(off, payload)
		// Evict the page by touching every other slot.
		for _, o := range offs {
			if o != off {
				mem.Read(o, 8)
			}
		}
		return bytes.Equal(mem.Read(off, len(payload)), payload)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAccountsWritebacksAndFaultsSeparately(t *testing.T) {
	mem := splitMem(t, 2)
	fillPages(t, mem, 5)
	c := mem.Meter().C
	if c.UserFaults != mem.UserFaults() {
		t.Fatalf("counter UserFaults %d != accessor %d", c.UserFaults, mem.UserFaults())
	}
	if c.UserWritebacks != mem.Writebacks() {
		t.Fatalf("counter UserWritebacks %d != accessor %d", c.UserWritebacks, mem.Writebacks())
	}
	if c.PageFaults != 0 {
		t.Fatal("split mode must not count hardware EPC faults")
	}
}
