package pubsub

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// ColumnEvents is the most events one Columns holds: one bit of a mask
// word each.
const ColumnEvents = 64

// Columns is a chunk of up to ColumnEvents events transposed by
// attribute, so that an AppendConstraints blob is evaluated against all
// of them in one pass over its bytes (Match). Bit i of every mask names
// the i-th event of the last Load. The zero value is ready to use, and
// a Columns is reused from chunk to chunk without allocating once it
// has grown to the widest chunk seen.
type Columns struct {
	// slot maps an attribute ID to its column, for the attributes some
	// event of the current chunk carries; nil = none does. The first n
	// of cols are the current chunk's columns, the rest spares.
	slot []*column
	cols []*column
	n    int
	// carries[b] holds the events that carry an attribute whose ID is b
	// mod 32: one mask per AttrSet bit.
	carries [32]uint64
}

// rankMin is the fewest live events at which Match decides a numeric
// constraint from the column's rank rather than one comparison per
// event. BenchmarkColumnsMatch sweeps both against 1 to 64 live
// events: they tie at 4, and the rank wins from 8 on.
const rankMin = 8

// column is one attribute across a chunk: the events that carry it,
// which of those carry a number and which a string, and each one's
// value (read only where its bit is set). The rank is built the first
// time Match needs it and stays valid until the column is reloaded.
type column struct {
	id            AttrID
	has, num, str uint64
	f             [ColumnEvents]float64
	s             [ColumnEvents]string

	// ranked says sorted, prefix, n and nan describe this chunk: the
	// n non-NaN numbers in ascending order, the mask of the events
	// holding the k smallest in prefix[k], and the NaN ones apart.
	ranked bool
	n      int
	nan    uint64
	sorted [ColumnEvents]float64
	prefix [ColumnEvents + 1]uint64
}

// rank sorts the column's non-NaN numbers (insertion sort: at most
// ColumnEvents of them, and no allocation) and fills prefix.
func (col *column) rank() {
	var at [ColumnEvents]uint8
	n := 0
	col.nan = 0
	for m := col.num; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		f := col.f[i&(ColumnEvents-1)]
		if f != f {
			col.nan |= uint64(1) << i
			continue
		}
		j := n
		for ; j > 0 && col.sorted[j-1] > f; j-- {
			col.sorted[j], at[j] = col.sorted[j-1], at[j-1]
		}
		col.sorted[j], at[j] = f, uint8(i)
		n++
	}
	for k := 0; k < n; k++ {
		col.prefix[k+1] = col.prefix[k] | uint64(1)<<at[k]
	}
	col.n, col.ranked = n, true
}

// within returns the events of the column whose number lies within
// the bounds: the NaN ones, which no bound rejects, and the sorted run
// between the first value not belowLo and the first aboveHi. Both
// predicates are monotone over sorted values, so each is one binary
// search and the verdicts are the per-event ones.
func (col *column) within(lo float64, loIncl bool, hi float64, hiIncl bool) uint64 {
	if !col.ranked {
		col.rank()
	}
	i, j := 0, col.n
	for i < j {
		h := int(uint(i+j) >> 1)
		if belowLo(col.sorted[h&(ColumnEvents-1)], lo, loIncl) {
			i = h + 1
		} else {
			j = h
		}
	}
	// The second search starts at klo: below it the run is empty
	// whatever hi is.
	klo := i
	j = col.n
	for i < j {
		h := int(uint(i+j) >> 1)
		if aboveHi(col.sorted[h&(ColumnEvents-1)], hi, hiIncl) {
			j = h
		} else {
			i = h + 1
		}
	}
	return col.prefix[i]&^col.prefix[klo] | col.nan
}

// Load transposes evs (nil entries skipped) into c, replacing the
// previous chunk: no column of it is read again. Each event's
// attributes must be sorted by ID, as Event promises; when one repeats
// an attribute, its first occurrence counts, as in MatchEncoded's merge
// join.
func (c *Columns) Load(evs []*Event) {
	if len(evs) > ColumnEvents {
		panic("pubsub: Columns.Load of more than ColumnEvents events")
	}
	for _, col := range c.cols[:c.n] {
		c.slot[col.id] = nil
		c.carries[col.id%32] = 0
	}
	c.n = 0
	for i, ev := range evs {
		if ev == nil {
			continue
		}
		bit := uint64(1) << i
		for k := range ev.Attrs {
			a := &ev.Attrs[k]
			if int(a.ID) >= len(c.slot) {
				grown := make([]*column, int(a.ID)+1)
				copy(grown, c.slot)
				c.slot = grown
			}
			col := c.slot[a.ID]
			if col == nil {
				if c.n == len(c.cols) {
					c.cols = append(c.cols, new(column))
				}
				col = c.cols[c.n]
				c.n++
				col.id, col.has, col.num, col.str, col.ranked = a.ID, 0, 0, 0, false
				c.slot[a.ID] = col
			} else if col.has&bit != 0 {
				continue
			}
			col.has |= bit
			switch a.Value.Kind {
			case KindString:
				col.str |= bit
				col.s[i] = a.Value.S
			case KindInt, KindFloat:
				col.num |= bit
				col.f[i] = a.Value.AsFloat()
			}
		}
	}
	for _, col := range c.cols[:c.n] {
		c.carries[col.id%32] |= col.has
	}
}

// Match evaluates an AppendConstraints blob against the loaded events
// in live, reading each constraint's ID, flags and bounds once and
// dropping from live, at that constraint, every event that fails it.
// For each event it is MatchEncoded's verdict: pass holds the events
// that satisfy every constraint, failed those that reach a truncated
// part of the blob (err is then the error MatchEncoded returns for each
// of them), and evaluated is the sum, over the events that did not
// fail, of the constraints each tested before its first failure. A
// constraint whose ID is below the previous one's fails every event
// still live, as the merge join does.
//
// A numeric constraint tested against rankMin or more live events is
// decided by two binary searches over its column's rank (built once
// per column per chunk), not one comparison per event; fewer take the
// per-event loop. The results, evaluated included, do not depend on
// the path.
func (c *Columns) Match(raw []byte, live uint64) (pass, failed uint64, evaluated int, err error) {
	return c.match(raw, live, rankMin)
}

// Admit narrows live to the events a blob outlined by attrs — and, when
// bounded, by a numeric constraint on id within [lo, hi] (OutlineEncoded,
// either side of the interval taken as closed) — can pass: each must
// carry an attribute for every bit of attrs, and a number on id that is
// neither below lo nor above hi. A NaN value or bound excludes nothing,
// as Match rejects nothing on one. Every event Match passes on such a
// blob survives.
func (c *Columns) Admit(live uint64, attrs AttrSet, id AttrID, lo, hi float64, bounded bool) uint64 {
	for m := uint32(attrs); m != 0 && live != 0; m &= m - 1 {
		live &= c.carries[bits.TrailingZeros32(m)]
	}
	if !bounded || live == 0 {
		return live
	}
	if int(id) >= len(c.slot) || c.slot[id] == nil {
		return 0
	}
	col := c.slot[id]
	var kept uint64
	for m := live & col.num; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		f := col.f[i&(ColumnEvents-1)]
		kept |= (one(!(f < lo)) & one(!(f > hi))) << i
	}
	return kept
}

// one is 1 when b is set, else 0: with it a bound test is two
// comparisons and no branch.
func one(b bool) uint64 {
	var v uint64
	if b {
		v = 1
	}
	return v
}

// match is Match with the crossover as a parameter, so tests and
// benchmarks can hold each path to the other.
func (c *Columns) match(raw []byte, live uint64, minRank int) (pass, failed uint64, evaluated int, err error) {
	if live == 0 {
		return 0, 0, 0, nil
	}
	if len(raw) < 2 {
		return 0, live, 0, errShort(2, 0, len(raw))
	}
	n := int(binary.LittleEndian.Uint16(raw))
	pos := 2
	var prev AttrID
	// Each event live at constraint k tests it, so evaluated gains the
	// live count there. Events that then fail at a truncation have been
	// counted at constraints 1..k (1..k-1 if it cuts k's header), and
	// are taken back out.
	for k := 1; k <= n; k++ {
		if len(raw)-pos < 3 {
			return 0, live, evaluated - (k-1)*bits.OnesCount64(live), errShort(3, pos, len(raw))
		}
		evaluated += bits.OnesCount64(live)
		id := AttrID(binary.LittleEndian.Uint16(raw[pos:]))
		flags := raw[pos+2]
		pos += 3
		if id < prev || int(id) >= len(c.slot) || c.slot[id] == nil {
			return 0, 0, evaluated, nil // no live event gets past the presence test
		}
		prev = id
		col := c.slot[id]
		if live &= col.has; live == 0 {
			return 0, 0, evaluated, nil
		}
		if flags&cfStr != 0 {
			if len(raw)-pos < 2 {
				return 0, live, evaluated - k*bits.OnesCount64(live), errShort(2, pos, len(raw))
			}
			sl := int(binary.LittleEndian.Uint16(raw[pos:]))
			pos += 2
			if len(raw)-pos < sl {
				return 0, live, evaluated - k*bits.OnesCount64(live), errShort(sl, pos, len(raw))
			}
			want := raw[pos : pos+sl]
			pos += sl
			exact := flags&cfPrefix == 0
			live &= col.str
			for m := live; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				// i < ColumnEvents already; the mask lets the compiler
				// drop the bounds check.
				s := col.s[i&(ColumnEvents-1)]
				if len(s) < sl || exact && len(s) != sl || s[:sl] != string(want) {
					live &^= uint64(1) << i
				}
			}
		} else {
			// An absent bound is one no value violates, NaN included.
			lo, loIncl, hi, hiIncl := math.Inf(-1), true, math.Inf(1), true
			width := 0
			if flags&cfHasLo != 0 {
				width += 8
			}
			if flags&cfHasHi != 0 {
				width += 8
			}
			if len(raw)-pos < width {
				return 0, live, evaluated - k*bits.OnesCount64(live), errShort(width, pos, len(raw))
			}
			if flags&cfHasLo != 0 {
				lo, loIncl = math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:])), flags&cfLoIncl != 0
				pos += 8
			}
			if flags&cfHasHi != 0 {
				hi, hiIncl = math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:])), flags&cfHiIncl != 0
				pos += 8
			}
			if live &= col.num; bits.OnesCount64(live) >= minRank {
				live &= col.within(lo, loIncl, hi, hiIncl)
			} else {
				for m := live; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					f := col.f[i&(ColumnEvents-1)]
					if belowLo(f, lo, loIncl) || aboveHi(f, hi, hiIncl) {
						live &^= uint64(1) << i
					}
				}
			}
		}
		if live == 0 {
			return 0, 0, evaluated, nil
		}
	}
	return live, 0, evaluated, nil
}
