package simmem

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestArenaAllocDoesNotCrossPages(t *testing.T) {
	a := NewArena()
	var offs []uint64
	sizes := []int{100, 4000, 96, 4096, 1, 4095, 64}
	for _, n := range sizes {
		off, err := a.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if PageOf(off) != PageOf(off+uint64(n)-1) {
			t.Fatalf("allocation of %d bytes at %d crosses a page", n, off)
		}
		offs = append(offs, off)
	}
	// Offsets are strictly increasing and distinct.
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("offsets not increasing: %v", offs)
		}
	}
}

func TestArenaRejectsBadSizes(t *testing.T) {
	a := NewArena()
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("Alloc(-5) succeeded")
	}
	if _, err := a.Alloc(PageSize + 1); err == nil {
		t.Fatal("Alloc(PageSize+1) succeeded")
	}
}

func TestArenaBytesRoundTrip(t *testing.T) {
	a := NewArena()
	off, err := a.Alloc(300)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, 300)
	copy(a.Bytes(off, 300), want)
	if !bytes.Equal(a.Bytes(off, 300), want) {
		t.Fatal("arena bytes round trip failed")
	}
}

func TestLLCSmallWorkingSetHits(t *testing.T) {
	llc := NewDefaultLLC()
	// 1 MB working set fits in an 8 MB cache: after a warmup pass,
	// everything hits.
	for line := uint64(0); line < (1<<20)/64; line++ {
		llc.touchLine(line)
	}
	for line := uint64(0); line < (1<<20)/64; line++ {
		if !llc.touchLine(line) {
			t.Fatalf("miss at line %d with resident working set", line)
		}
	}
}

func TestLLCLargeWorkingSetMisses(t *testing.T) {
	llc := NewDefaultLLC()
	// A 64 MB sequential scan with LRU replacement misses on every
	// revisit: the set is 8× the cache.
	for pass := 0; pass < 2; pass++ {
		misses := 0
		for line := uint64(0); line < (64<<20)/64; line++ {
			if !llc.touchLine(line) {
				misses++
			}
		}
		if misses != (64<<20)/64 {
			t.Fatalf("pass %d: misses = %d, want all %d", pass, misses, (64<<20)/64)
		}
	}
}

func TestLLCAssociativity(t *testing.T) {
	llc := NewLLC(64*16*4, 64, 16) // 4 sets, 16 ways
	// 16 lines mapping to the same set all fit.
	stride := uint64(4) // in lines
	for i := uint64(0); i < 16; i++ {
		llc.touchLine(i * stride)
	}
	for i := uint64(0); i < 16; i++ {
		if !llc.touchLine(i * stride) {
			t.Fatalf("line %d evicted from non-full set", i)
		}
	}
	// The 17th conflicts and evicts the LRU line (line 0).
	llc.touchLine(16 * stride)
	if llc.touchLine(0) {
		t.Fatal("LRU line survived a conflict miss")
	}
}

func TestLLCFlush(t *testing.T) {
	llc := NewDefaultLLC()
	llc.touchLine(0)
	llc.Flush()
	if llc.touchLine(0) {
		t.Fatal("hit after flush")
	}
}

func TestLLCGeometryValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewLLC(0, 64, 16) },
		func() { NewLLC(8<<20, 0, 16) },
		func() { NewLLC(8<<20, 64, 0) },
		func() { NewLLC(100, 64, 16) },
		func() { NewLLC(63*16*4, 63, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid geometry accepted")
				}
			}()
			bad()
		}()
	}
}

func TestMeterChargesDRAMAndMEE(t *testing.T) {
	cost := DefaultCost()
	m := NewMeter(cost)
	m.Access(0, 64, false)
	wantMiss := cost.LLCHitCycles + cost.DRAMCycles
	if m.C.Cycles != wantMiss {
		t.Fatalf("plain miss cycles = %d, want %d", m.C.Cycles, wantMiss)
	}
	m.Access(0, 64, false)
	if m.C.Cycles != wantMiss+cost.LLCHitCycles {
		t.Fatalf("hit cycles = %d, want %d", m.C.Cycles, wantMiss+cost.LLCHitCycles)
	}

	e := NewMeter(cost)
	e.SetEnclave(true)
	e.Access(0, 64, false)
	wantEnclaveMiss := cost.LLCHitCycles + cost.DRAMCycles + cost.MEECycles
	if e.C.Cycles != wantEnclaveMiss {
		t.Fatalf("enclave miss cycles = %d, want %d", e.C.Cycles, wantEnclaveMiss)
	}
}

func TestMeterSpansLinesAndPages(t *testing.T) {
	m := NewMeter(DefaultCost())
	// 130 bytes starting at line boundary → 3 lines.
	m.Access(0, 130, false)
	if m.C.LLCHits+m.C.LLCMisses != 3 {
		t.Fatalf("lookups = %d, want 3", m.C.LLCHits+m.C.LLCMisses)
	}
	if m.C.BytesRead != 130 {
		t.Fatalf("BytesRead = %d, want 130", m.C.BytesRead)
	}
	// Zero-size accesses are free.
	before := m.C
	m.Access(0, 0, false)
	if m.C != before {
		t.Fatal("zero-size access charged")
	}
}

func TestPlainAccessorMinorFaults(t *testing.T) {
	p := NewPlainAccessor(DefaultCost())
	// Touch 4 MB: two 2 MB THP regions → exactly 2 minor faults.
	for i := 0; i < 1024; i++ {
		off, err := p.Alloc(PageSize)
		if err != nil {
			t.Fatal(err)
		}
		p.Write(off, make([]byte, PageSize))
	}
	if p.Meter().C.MinorFaults != 2 {
		t.Fatalf("MinorFaults = %d, want 2", p.Meter().C.MinorFaults)
	}
}

func TestPlainAccessorReadWrite(t *testing.T) {
	p := NewPlainAccessor(DefaultCost())
	off, err := p.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 128)
	p.Write(off, data)
	if !bytes.Equal(p.Read(off, 128), data) {
		t.Fatal("accessor read/write mismatch")
	}
	if p.Size() == 0 {
		t.Fatal("Size() = 0 after allocation")
	}
}

func TestCountersSubAndMissRate(t *testing.T) {
	a := Counters{Cycles: 100, LLCHits: 30, LLCMisses: 10}
	b := Counters{Cycles: 250, LLCHits: 90, LLCMisses: 30}
	d := b.Sub(a)
	if d.Cycles != 150 || d.LLCHits != 60 || d.LLCMisses != 20 {
		t.Fatalf("Sub = %+v", d)
	}
	if got := d.MissRate(); got != 0.25 {
		t.Fatalf("MissRate = %f, want 0.25", got)
	}
	if (Counters{}).MissRate() != 0 {
		t.Fatal("empty MissRate should be 0")
	}
}

func TestCostModelConversions(t *testing.T) {
	c := DefaultCost()
	if got := c.Micros(3_400_000); got < 999 || got > 1001 {
		t.Fatalf("3.4M cycles = %f µs, want ~1000", got)
	}
	if c.Duration(3400).Microseconds() != 1 {
		t.Fatalf("Duration(3400) = %v, want 1µs", c.Duration(3400))
	}
}

func TestArenaAllocQuick(t *testing.T) {
	a := NewArena()
	f := func(raw uint16) bool {
		n := int(raw%PageSize) + 1
		off, err := a.Alloc(n)
		if err != nil {
			return false
		}
		return PageOf(off) == PageOf(off+uint64(n)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestModelStructsFillWholeCacheLines keeps the padding of Meter and
// LLC honest when a field is added: a size that is not a multiple of
// the host's 64-byte line lets two slices' models share one.
func TestModelStructsFillWholeCacheLines(t *testing.T) {
	if s := unsafe.Sizeof(Meter{}); s%64 != 0 {
		t.Errorf("Meter is %d bytes: adjust its padding to a multiple of 64", s)
	}
	if s := unsafe.Sizeof(LLC{}); s%64 != 0 {
		t.Errorf("LLC is %d bytes: adjust its padding to a multiple of 64", s)
	}
}

// hotAccessor returns a plain accessor with n pages allocated and every
// line of them already in the LLC model (n pages must fit the cache).
func hotAccessor(tb testing.TB, pages int) *PlainAccessor {
	tb.Helper()
	p := NewPlainAccessor(DefaultCost())
	for i := 0; i < pages; i++ {
		off, err := p.Alloc(PageSize)
		if err != nil {
			tb.Fatal(err)
		}
		p.Read(off, PageSize)
	}
	return p
}

// TestMeterAccessHitAllocatesNothing guards the hot path of the model:
// a cache- and page-resident access is a few loads and stores, with no
// allocation.
func TestMeterAccessHitAllocatesNothing(t *testing.T) {
	m := hotAccessor(t, 64).Meter()
	var addr uint64
	allocs := testing.AllocsPerRun(1000, func() {
		m.Access(addr%(64*PageSize-128), 100, false)
		addr += 4099
	})
	if allocs != 0 {
		t.Fatalf("Meter.Access on a hit allocates %.1f times, want 0", allocs)
	}
	if m.C.LLCMisses != 64*PageSize/DefaultLineSize {
		t.Fatalf("accesses over a resident working set missed: %d misses, want only the %d of the warm-up",
			m.C.LLCMisses, 64*PageSize/DefaultLineSize)
	}
}

// BenchmarkMeterAccessHit and BenchmarkMeterAccessMiss are the
// simulator's own cost per 48-byte access (a node header): over a
// working set that fits the modelled LLC, and over a sweep of four
// times its capacity, where every lookup evicts. The fault path is
// BenchmarkMeterAccessFault in internal/sgx.
func BenchmarkMeterAccessHit(b *testing.B) {
	m := hotAccessor(b, 256).Meter()
	b.ReportAllocs()
	b.ResetTimer()
	var addr uint64
	for i := 0; i < b.N; i++ {
		m.Access(addr%(256*PageSize-64), 48, false)
		addr += 4099
	}
}

func BenchmarkMeterAccessMiss(b *testing.B) {
	const sweep = 4 * DefaultLLCSize
	m := NewMeter(DefaultCost())
	for addr := uint64(0); addr < sweep; addr += DefaultLineSize {
		m.Access(addr, 48, false) // grow the stamp table outside the timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	var addr uint64
	for i := 0; i < b.N; i++ {
		m.Access(addr%sweep, 48, false)
		addr += DefaultLineSize
	}
	b.StopTimer()
	if m.C.LLCHits != 0 {
		b.Fatalf("%d hits on a sweep of four times the cache", m.C.LLCHits)
	}
}
