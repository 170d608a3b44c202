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
}

// column is one attribute across a chunk: the events that carry it,
// which of those carry a number and which a string, and each one's
// value (read only where its bit is set).
type column struct {
	id            AttrID
	has, num, str uint64
	f             [ColumnEvents]float64
	s             [ColumnEvents]string
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
				col.id, col.has, col.num, col.str = a.ID, 0, 0, 0
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
func (c *Columns) Match(raw []byte, live uint64) (pass, failed uint64, evaluated int, err error) {
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
			live &= col.num
			for m := live; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				f := col.f[i&(ColumnEvents-1)]
				if belowLo(f, lo, loIncl) || aboveHi(f, hi, hiIncl) {
					live &^= uint64(1) << i
				}
			}
		}
		if live == 0 {
			return 0, 0, evaluated, nil
		}
	}
	return live, 0, evaluated, nil
}
