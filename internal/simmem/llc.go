package simmem

// LLC is a set-associative last-level cache model with true-LRU
// replacement. The default geometry mirrors the i7-6700: 8 MB capacity,
// 64-byte lines, 16 ways. The model tracks tags only — data always
// lives in the backing arena.
//
// Recency is a per-line last-use stamp in a table indexed by line
// number, so a hit is one load and one store on memory laid out like
// the arena the engine is walking. Stamps are unique, which makes the
// smallest stamp among a set's members its LRU way; set membership is
// consulted only on a miss.
type LLC struct {
	lineShift uint
	setMask   uint64
	ways      uint64
	// stamp[line] is the tick of the line's last use, or 0 while the
	// line is not cached. It grows with the highest line touched
	// (8 bytes per 64-byte arena line), never with the cache geometry.
	stamp []uint64
	tick  uint64
	// members[set*ways:][:ways] holds line+1 for every line cached in
	// the set, filled from the left; 0 marks a free way.
	members []uint64

	// Slices match in parallel, each through its own Meter and LLC,
	// and both are stored to on every access. Padded to whole cache
	// lines (the allocator aligns such sizes to them), neither shares a
	// line with its neighbour in the span; unpadded, two meters built
	// back to back and driven from two cores ran 3–5× slower than two
	// built apart.
	_ [128 - 80]byte
}

// LLC geometry defaults (i7-6700).
const (
	DefaultLLCSize  = 8 << 20
	DefaultLineSize = 64
	DefaultLLCWays  = 16
)

// NewLLC builds a cache model. size and lineSize must be powers of two
// and size must be divisible by lineSize*ways; NewLLC panics otherwise,
// since geometry is a compile-time-style configuration error.
func NewLLC(size, lineSize uint64, ways int) *LLC {
	if size == 0 || lineSize == 0 || ways <= 0 {
		panic("simmem: invalid LLC geometry")
	}
	if size%(lineSize*uint64(ways)) != 0 {
		panic("simmem: LLC size must be a multiple of lineSize*ways")
	}
	numSets := size / lineSize / uint64(ways)
	if numSets&(numSets-1) != 0 || lineSize&(lineSize-1) != 0 {
		panic("simmem: LLC sets and line size must be powers of two")
	}
	shift := uint(0)
	for l := lineSize; l > 1; l >>= 1 {
		shift++
	}
	return &LLC{
		lineShift: shift,
		setMask:   numSets - 1,
		ways:      uint64(ways),
		members:   make([]uint64, numSets*uint64(ways)),
	}
}

// NewDefaultLLC returns the 8 MB / 64 B / 16-way model.
func NewDefaultLLC() *LLC { return NewLLC(DefaultLLCSize, DefaultLineSize, DefaultLLCWays) }

// hit looks up cache line number line (address / line size). If the
// line is cached it becomes the most recently used of its set and hit
// reports true; otherwise the cache is left untouched for install. It
// is small enough to inline into the meter's loop.
func (c *LLC) hit(line uint64) bool {
	if line < uint64(len(c.stamp)) && c.stamp[line] != 0 {
		c.tick++
		c.stamp[line] = c.tick
		return true
	}
	return false
}

// install puts a line that missed into its set's first free way, or
// over the member with the smallest stamp (the LRU way).
func (c *LLC) install(line uint64) {
	set := c.members[(line&c.setMask)*c.ways:][:c.ways]
	victim := 0
	for i, m := range set {
		if m == 0 {
			victim = i
			break
		}
		if c.stamp[m-1] < c.stamp[set[victim]-1] {
			victim = i
		}
	}
	if m := set[victim]; m != 0 {
		c.stamp[m-1] = 0
	}
	set[victim] = line + 1
	if n := uint64(len(c.stamp)); line >= n {
		c.stamp = append(c.stamp, make([]uint64, line+1-n)...)
	}
	c.tick++
	c.stamp[line] = c.tick
}

// Flush empties the cache (used between experiment phases).
func (c *LLC) Flush() {
	clear(c.stamp)
	clear(c.members)
}
