package simmem

import (
	"math/rand"
	"testing"
)

// refLLC is the slice-of-sets model the stamp-table LLC replaced, kept
// as the reference the differential test below holds it to: each set
// is a slice of line numbers in LRU order, index 0 most recently used,
// and a hit moves the line to the front.
type refLLC struct {
	setMask uint64
	ways    int
	sets    [][]uint64
}

func newRefLLC(size, lineSize uint64, ways int) *refLLC {
	numSets := size / lineSize / uint64(ways)
	sets := make([][]uint64, numSets)
	for i := range sets {
		sets[i] = make([]uint64, 0, ways)
	}
	return &refLLC{setMask: numSets - 1, ways: ways, sets: sets}
}

func (c *refLLC) touchLine(line uint64) (hit bool) {
	set := c.sets[line&c.setMask]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	if len(set) < c.ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[line&c.setMask] = set
	return false
}

func (c *refLLC) flush() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
}

// touchLine is one lookup as the meter makes it: it reports whether
// line hit, and installs it on a miss.
func (c *LLC) touchLine(line uint64) (hit bool) {
	if c.hit(line) {
		return true
	}
	c.install(line)
	return false
}

// TestLLCMatchesReferenceModel pins "bit-identical": every hit/miss
// verdict of the stamp-table model equals the move-to-front model's on
// a mixed trace — uniform over three times the capacity, a hot half of
// the cache, and a sequential stride — with a Flush in the middle.
func TestLLCMatchesReferenceModel(t *testing.T) {
	const accesses = 1 << 20
	for _, g := range []struct {
		name           string
		size, lineSize uint64
		ways           int
	}{
		{"default-8MB-16way", DefaultLLCSize, DefaultLineSize, DefaultLLCWays},
		{"4set-16way", 64 * 16 * 4, 64, 16},
		{"64set-2way-128B", 128 * 2 * 64, 128, 2},
	} {
		t.Run(g.name, func(t *testing.T) {
			llc, ref := NewLLC(g.size, g.lineSize, g.ways), newRefLLC(g.size, g.lineSize, g.ways)
			capLines := g.size / g.lineSize
			rng := rand.New(rand.NewSource(int64(g.size) + int64(g.ways)))
			var seq uint64
			for i := 0; i < accesses; i++ {
				if i == accesses/2 {
					llc.Flush()
					ref.flush()
				}
				var line uint64
				switch rng.Intn(3) {
				case 0:
					line = uint64(rng.Int63n(int64(3 * capLines)))
				case 1:
					line = uint64(rng.Int63n(int64(capLines/2 + 1)))
				default:
					seq = (seq + 3) % (2 * capLines)
					line = seq
				}
				if got, want := llc.touchLine(line), ref.touchLine(line); got != want {
					t.Fatalf("access %d, line %d: hit = %v, reference model says %v", i, line, got, want)
				}
			}
		})
	}
}
