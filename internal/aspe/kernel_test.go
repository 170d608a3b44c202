package aspe

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"scbr/internal/core"
)

// kernelCase is one sign test laid out both ways: vec as the arena
// holds it and decoded, the points event-major (signTests) and k-major
// (signKernel).
type kernelCase struct {
	dim       int
	raw       []byte
	vec, pts  []float64
	rows      []float64
	negTol    [scanChunk]float64
	qScale    float64
	live      uint64
	kernelRan bool
}

func newKernelCase(dim int, vec, pts []float64, live uint64) *kernelCase {
	c := &kernelCase{dim: dim, vec: vec, pts: pts, live: live, qScale: 1,
		raw: make([]byte, 8*dim), rows: make([]float64, dim*scanChunk)}
	for k, x := range vec {
		binary.LittleEndian.PutUint64(c.raw[8*k:], math.Float64bits(x))
	}
	for i := 0; i < scanChunk; i++ {
		for k := 0; k < dim; k++ {
			c.rows[k*scanChunk+i] = pts[i*dim+k]
		}
	}
	return c
}

func (c *kernelCase) point(i int) []float64 { return c.pts[i*c.dim:][:c.dim] }

// check holds signKernel and signTests to Dot and to each other: every
// live event's kernel sum equals Dot bit for bit, and the kernel's,
// signTests' and Dot's passing events are the same.
func (c *kernelCase) check(t *testing.T, what string) {
	t.Helper()
	var sums [scanChunk]float64
	want := c.live
	for m := c.live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if Dot(c.point(i), c.vec) < c.negTol[i]*c.qScale {
			want &^= 1 << uint(i)
		}
	}
	if got := signTests(c.raw, c.pts, &c.negTol, c.qScale, c.live); got != want {
		t.Fatalf("%s: signTests passes %#x, Dot %#x", what, got, want)
	}
	if !haveKernel {
		return
	}
	c.kernelRan = true
	if got := c.live &^ signKernel(&c.raw[0], &c.rows[0], c.dim, c.live, &c.negTol, c.qScale, &sums); got != want {
		t.Fatalf("%s: signKernel passes %#x, Dot %#x", what, got, want)
	}
	for m := c.live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if d := Dot(c.point(i), c.vec); math.Float64bits(sums[i]) != math.Float64bits(d) {
			t.Fatalf("%s: event %d: signKernel sum %x (%g), Dot %x (%g)", what, i, math.Float64bits(sums[i]), sums[i], math.Float64bits(d), d)
		}
	}
}

// checkAtEdges runs check with every live event's threshold at its own
// Dot and one ulp on either side of it: a sum one ulp off Dot's flips a
// verdict, so signTests' sums are held to the bit too.
func (c *kernelCase) checkAtEdges(t *testing.T, what string) {
	t.Helper()
	for _, edge := range []struct {
		name string
		dir  float64
	}{{"Dot", 0}, {"Dot+1ulp", math.Inf(1)}, {"Dot-1ulp", math.Inf(-1)}} {
		c.qScale = 1
		for i := 0; i < scanChunk; i++ {
			d := Dot(c.point(i), c.vec)
			if edge.dir != 0 {
				d = math.Nextafter(d, edge.dir)
			}
			c.negTol[i] = d
		}
		c.check(t, what+", threshold "+edge.name)
	}
}

// component draws a coordinate from subnormal to overflow: ±0, a
// subnormal, a tiny normal, a value whose products overflow, or an
// ordinary one.
func component(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(10) {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float64frombits(1+rng.Uint64()%(1<<52-1))
	case 2:
		return sign * math.Ldexp(1+rng.Float64(), -1022+rng.Intn(8))
	case 3:
		return sign * math.Ldexp(1+rng.Float64(), 1000+rng.Intn(23))
	default:
		return sign * math.Ldexp(rng.Float64(), rng.Intn(60)-30)
	}
}

// TestSignKernelMatchesDot holds signKernel and signTests to Dot, on
// sums and verdicts, at dimensions 1 to MaxDim, for dense, sparse,
// single and bit-31/32-straddling masks, over components from
// subnormal to overflow and ±0. On a host without the kernel it checks
// signTests alone.
func TestSignKernelMatchesDot(t *testing.T) {
	masks := []struct {
		name string
		live uint64
	}{
		{"dense", ^uint64(0)},
		{"low 12", 1<<12 - 1},
		{"sparse", 0x8040201008040201},
		{"alternate", 0xaaaaaaaaaaaaaaaa},
		{"single 0", 1},
		{"single 31", 1 << 31},
		{"single 32", 1 << 32},
		{"single 63", 1 << 63},
		{"straddle 31/32", 0xf << 30},
		{"pair 31/32", 3 << 31},
		{"straddle 28-35", 0xff << 28},
	}
	for _, dim := range []int{1, 2, 3, 24, 25, MaxDim} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(dim)))
			rounds := 4
			if dim == MaxDim {
				rounds = 1
			}
			for round := 0; round < rounds; round++ {
				vec, pts := make([]float64, dim), make([]float64, scanChunk*dim)
				for k := range vec {
					vec[k] = component(rng)
				}
				for k := range pts {
					pts[k] = component(rng)
				}
				if round == 1 { // ±0 coordinates, so some products are ±0
					for k := 0; k < dim; k += 2 {
						vec[k] = math.Copysign(0, float64(k%4-1))
					}
				}
				c := newKernelCase(dim, vec, pts, 0)
				for _, m := range masks {
					c.live = m.live
					what := fmt.Sprintf("round %d, %s", round, m.name)
					c.checkAtEdges(t, what)
					c.qScale = 1 + rng.Float64()*8
					for i := range c.negTol {
						c.negTol[i] = component(rng)
					}
					c.check(t, what+", drawn thresholds")
				}
				if haveKernel && !c.kernelRan {
					t.Fatal("the kernel never ran")
				}
			}
		})
	}
}

// kernelFuzzCase reads a sign test from fuzz bytes: a dimension, a
// live mask, then vec and the points as float64s, non-finite ones
// replaced by a finite value from the same bits (the decoders refuse
// non-finite components, so the store never holds one); bytes that run
// out read as 0.
func kernelFuzzCase(dimSel uint8, live uint64, raw []byte) *kernelCase {
	dim := 1 + int(dimSel%40)
	next := func() float64 {
		var w [8]byte
		raw = raw[copy(w[:], raw):]
		x := math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = math.Float64frombits(binary.LittleEndian.Uint64(w[:]) &^ (1 << 62))
		}
		return x
	}
	vec, pts := make([]float64, dim), make([]float64, scanChunk*dim)
	for k := range vec {
		vec[k] = next()
	}
	for k := range pts {
		pts[k] = next()
	}
	c := newKernelCase(dim, vec, pts, live)
	c.qScale = 1 + math.Abs(next())
	for i := range c.negTol {
		c.negTol[i] = next()
	}
	return c
}

// FuzzSignKernel: fuzz bytes choose the vector, the points, the
// thresholds and the live mask; signKernel's sums and verdicts must be
// signTests' and Dot's.
func FuzzSignKernel(f *testing.F) {
	// Enough drawn components for a dimension-3 case: vec, the points,
	// qScale and the thresholds.
	seed := make([]byte, 8*(3+3*scanChunk+1+scanChunk))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i+8 <= len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(component(rng)))
	}
	f.Add(uint8(2), ^uint64(0), seed)
	f.Add(uint8(0), uint64(1)<<32, seed)
	f.Add(uint8(23), uint64(0xf)<<30, seed)
	f.Add(uint8(9), uint64(0x8040201008040201), []byte{})
	f.Fuzz(func(t *testing.T, dimSel uint8, live uint64, raw []byte) {
		c := kernelFuzzCase(dimSel, live, raw)
		c.check(t, "drawn thresholds")
		c.checkAtEdges(t, "edges")
	})
}

// TestScanKernelPathsAgree runs TestBatchScan's corpus through three
// stores fed the same registrations: one scanning with the kernel as
// the host has it, one with the init-time CPU flag cleared (signTests
// everywhere) and one handing every sign test to the kernel, even a
// lone event's. At batch 1, 8, 32 and 64 their matches, the matches'
// order and every meter counter must be identical.
func TestScanKernelPathsAgree(t *testing.T) {
	if !haveKernel {
		t.Skip("no sign kernel on this host")
	}
	defer func(had bool) { haveKernel = had }(haveKernel)
	for _, nAttrs := range []int{4, 11} {
		for _, prefilter := range []bool{true, false} {
			seed := int64(100*nAttrs) + 7
			t.Run(fmt.Sprintf("attrs=%d/prefilter=%v", nAttrs, prefilter), func(t *testing.T) {
				bed := newScanBed(t, nAttrs, seed)
				host, portable, always := bed.store(prefilter), bed.store(prefilter), bed.store(prefilter)
				stores := []*Store{host, portable, always}
				var ids []uint64
				register := func(es *EncodedSubscription) {
					var id uint64
					for _, s := range stores {
						var err error
						if id, err = s.Register(es, uint32(len(ids))); err != nil {
							t.Fatal(err)
						}
					}
					ids = append(ids, id)
				}
				for i := 0; i < 240; i++ {
					register(bed.anySub(i))
				}
				for round, n := range []int{1, 8, 32, 64, 64, 32, 8, 1} {
					for k := 0; k < 20; k++ {
						j := bed.rng.Intn(len(ids))
						for _, s := range stores {
							if err := s.Unregister(ids[j]); err != nil {
								t.Fatal(err)
							}
						}
						ids = slices.Delete(ids, j, j+1)
						register(bed.anySub(k))
					}
					eps := make([]*EncodedPublication, n)
					for i := range eps {
						if n > 2 && i%7 == 3 {
							continue // a hole
						}
						eps[i] = bed.event()
					}
					results := make([][][]Match, len(stores))
					for si, s := range stores {
						results[si] = make([][]Match, n)
						haveKernel = s != portable
						if s == always {
							core.AppendRows(results[si], s.scan(eps, 0, nil, 1))
						} else if err := matchRows(s, eps, results[si]); err != nil {
							t.Fatal(err)
						}
					}
					haveKernel = true
					matched := 0
					for i := range eps {
						for si := 1; si < len(stores); si++ {
							if !slices.Equal(results[si][i], results[0][i]) {
								t.Fatalf("round %d batch %d item %d: store %d matched %v, the host's scan %v", round, n, i, si, results[si][i], results[0][i])
							}
						}
						matched += len(results[0][i])
					}
					for si := 1; si < len(stores); si++ {
						if stores[si].Meter().C != host.Meter().C {
							t.Fatalf("round %d batch %d: store %d counters\n got  %+v\n want %+v", round, n, si, stores[si].Meter().C, host.Meter().C)
						}
					}
					if matched == 0 {
						t.Fatalf("round %d batch %d: no event matched anything", round, n)
					}
				}
			})
		}
	}
}
