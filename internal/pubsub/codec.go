package pubsub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire formats. Publishers and clients serialise events and
// subscription specs with attribute *names* (they cannot know the
// engine's intern table); the engine interns at its trusted boundary
// after decryption. All integers are little-endian.

// ErrCodec indicates a malformed serialised value.
var ErrCodec = errors.New("pubsub: malformed encoding")

// NamedValue is one attribute of a wire-level event.
type NamedValue struct {
	Name  string
	Value Value
}

// EventSpec is the wire-level publication header.
type EventSpec struct {
	Attrs []NamedValue
}

// EncodeEventSpec serialises a header for encryption and transport.
func EncodeEventSpec(spec EventSpec) ([]byte, error) {
	if len(spec.Attrs) > math.MaxUint16 {
		return nil, fmt.Errorf("pubsub: too many attributes (%d)", len(spec.Attrs))
	}
	buf := make([]byte, 2, 32*len(spec.Attrs)+2)
	binary.LittleEndian.PutUint16(buf, uint16(len(spec.Attrs)))
	for _, a := range spec.Attrs {
		var err error
		buf, err = appendString8(buf, a.Name)
		if err != nil {
			return nil, err
		}
		buf, err = appendValue(buf, a.Value)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeEventSpec parses a header produced by EncodeEventSpec.
func DecodeEventSpec(raw []byte) (EventSpec, error) {
	var spec EventSpec
	r := reader{buf: raw}
	n, err := r.uint16()
	if err != nil {
		return spec, err
	}
	spec.Attrs = make([]NamedValue, 0, n)
	for i := 0; i < int(n); i++ {
		name, err := r.string8()
		if err != nil {
			return spec, err
		}
		v, err := r.value()
		if err != nil {
			return spec, err
		}
		spec.Attrs = append(spec.Attrs, NamedValue{Name: name, Value: v})
	}
	if !r.done() {
		return spec, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.remaining())
	}
	return spec, nil
}

// Intern converts a wire event into the engine's Event form.
func (spec EventSpec) Intern(schema *Schema) (*Event, error) {
	attrs := make(map[string]Value, len(spec.Attrs))
	for _, a := range spec.Attrs {
		attrs[a.Name] = a.Value
	}
	return NewEvent(schema, attrs)
}

// DecodeEventInto parses a header produced by EncodeEventSpec straight
// into ev, reusing its attribute slice — the matching hot path's
// DecodeEventSpec + Intern with nothing built on the way but the string
// values: the same inputs are rejected, a name seen twice keeps its
// last value, and names new to the schema are interned only once the
// whole header has parsed. Every name is looked up under one read lock
// (a map lookup keyed by string(bytes) does not allocate), and the
// attributes are insertion-sorted by ID as they arrive. On error ev's
// contents are unspecified.
func DecodeEventInto(schema *Schema, raw []byte, ev *Event) error {
	unknown, err := schema.decodeEvent(raw, ev)
	if err != nil || !unknown {
		return err
	}
	// First sight of an attribute name, once per name per schema:
	// intern the header's names the way Intern does, then parse again.
	spec, err := DecodeEventSpec(raw)
	if err != nil {
		return err
	}
	for _, a := range spec.Attrs {
		if _, err := schema.Intern(a.Name); err != nil {
			return err
		}
	}
	_, err = schema.decodeEvent(raw, ev)
	return err
}

// decodeEvent is DecodeEventInto's parse. It reports unknown when the
// header is well-formed but names an attribute the schema has not
// interned; ev is then incomplete.
func (s *Schema) decodeEvent(raw []byte, ev *Event) (unknown bool, err error) {
	r := reader{buf: raw}
	n, err := r.uint16()
	if err != nil {
		return false, err
	}
	attrs := ev.Attrs[:0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := 0; i < int(n); i++ {
		nameLen, err := r.byte()
		if err != nil {
			return false, err
		}
		name, err := r.bytes(int(nameLen))
		if err != nil {
			return false, err
		}
		v, err := r.value()
		if err != nil {
			return false, err
		}
		id, ok := s.ids[string(name)]
		if !ok {
			unknown = true
			continue
		}
		j := len(attrs)
		for j > 0 && attrs[j-1].ID > id {
			j--
		}
		if j > 0 && attrs[j-1].ID == id {
			attrs[j-1].Value = v
			continue
		}
		attrs = append(attrs, EventAttr{})
		copy(attrs[j+1:], attrs[j:])
		attrs[j] = EventAttr{ID: id, Value: v}
	}
	if !r.done() {
		return false, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.remaining())
	}
	ev.Attrs = attrs
	return unknown, nil
}

// EncodeSubscriptionSpec serialises a subscription spec for the
// client→publisher and publisher→engine legs.
func EncodeSubscriptionSpec(spec SubscriptionSpec) ([]byte, error) {
	if len(spec.Predicates) > math.MaxUint16 {
		return nil, fmt.Errorf("pubsub: too many predicates (%d)", len(spec.Predicates))
	}
	buf := make([]byte, 2, 32*len(spec.Predicates)+2)
	binary.LittleEndian.PutUint16(buf, uint16(len(spec.Predicates)))
	for _, p := range spec.Predicates {
		var err error
		buf, err = appendString8(buf, p.Attr)
		if err != nil {
			return nil, err
		}
		buf = append(buf, byte(p.Op))
		buf, err = appendValue(buf, p.Value)
		if err != nil {
			return nil, err
		}
		if p.Op == OpBetween {
			buf, err = appendValue(buf, p.Hi)
			if err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// DecodeSubscriptionSpec parses EncodeSubscriptionSpec output.
func DecodeSubscriptionSpec(raw []byte) (SubscriptionSpec, error) {
	var spec SubscriptionSpec
	r := reader{buf: raw}
	n, err := r.uint16()
	if err != nil {
		return spec, err
	}
	spec.Predicates = make([]Predicate, 0, n)
	for i := 0; i < int(n); i++ {
		var p Predicate
		if p.Attr, err = r.string8(); err != nil {
			return spec, err
		}
		op, err := r.byte()
		if err != nil {
			return spec, err
		}
		p.Op = Op(op)
		if p.Value, err = r.value(); err != nil {
			return spec, err
		}
		if p.Op == OpBetween {
			if p.Hi, err = r.value(); err != nil {
				return spec, err
			}
		}
		spec.Predicates = append(spec.Predicates, p)
	}
	if !r.done() {
		return spec, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.remaining())
	}
	return spec, nil
}

// Compact constraint encoding — the form stored in enclave arena
// records. Layout per constraint:
//
//	id u16 | flags u8 | payload
//
// flags: bit0 Str, bit1 HasLo, bit2 HasHi, bit3 LoIncl, bit4 HiIncl.
// payload: string (u16 len + bytes) when Str, else Lo f64 when HasLo
// followed by Hi f64 when HasHi.
const (
	cfStr uint8 = 1 << iota
	cfHasLo
	cfHasHi
	cfLoIncl
	cfHiIncl
	cfPrefix
)

// AppendConstraints serialises a normalised subscription's constraints.
func AppendConstraints(buf []byte, cs []Constraint) ([]byte, error) {
	if len(cs) > math.MaxUint16 {
		return nil, fmt.Errorf("pubsub: too many constraints (%d)", len(cs))
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(cs)))
	buf = append(buf, u16[:]...)
	for _, c := range cs {
		binary.LittleEndian.PutUint16(u16[:], uint16(c.ID))
		buf = append(buf, u16[:]...)
		var flags uint8
		if c.Str {
			flags |= cfStr
		}
		if c.Prefix {
			flags |= cfPrefix
		}
		if c.HasLo {
			flags |= cfHasLo
		}
		if c.HasHi {
			flags |= cfHasHi
		}
		if c.LoIncl {
			flags |= cfLoIncl
		}
		if c.HiIncl {
			flags |= cfHiIncl
		}
		buf = append(buf, flags)
		if c.Str {
			if len(c.EqS) > math.MaxUint16 {
				return nil, fmt.Errorf("pubsub: string constraint too long (%d)", len(c.EqS))
			}
			binary.LittleEndian.PutUint16(u16[:], uint16(len(c.EqS)))
			buf = append(buf, u16[:]...)
			buf = append(buf, c.EqS...)
			continue
		}
		var f64 [8]byte
		if c.HasLo {
			binary.LittleEndian.PutUint64(f64[:], math.Float64bits(c.Lo))
			buf = append(buf, f64[:]...)
		}
		if c.HasHi {
			binary.LittleEndian.PutUint64(f64[:], math.Float64bits(c.Hi))
			buf = append(buf, f64[:]...)
		}
	}
	return buf, nil
}

// DecodeConstraints parses AppendConstraints output and returns the
// constraints plus the number of bytes consumed.
func DecodeConstraints(raw []byte) ([]Constraint, int, error) {
	r := reader{buf: raw}
	n, err := r.uint16()
	if err != nil {
		return nil, 0, err
	}
	cs := make([]Constraint, 0, n)
	for i := 0; i < int(n); i++ {
		id, err := r.uint16()
		if err != nil {
			return nil, 0, err
		}
		flags, err := r.byte()
		if err != nil {
			return nil, 0, err
		}
		c := Constraint{
			ID:     AttrID(id),
			Str:    flags&cfStr != 0,
			Prefix: flags&cfPrefix != 0,
			HasLo:  flags&cfHasLo != 0,
			HasHi:  flags&cfHasHi != 0,
			LoIncl: flags&cfLoIncl != 0,
			HiIncl: flags&cfHiIncl != 0,
		}
		if c.Str {
			if c.EqS, err = r.string16(); err != nil {
				return nil, 0, err
			}
		} else {
			if c.HasLo {
				if c.Lo, err = r.float64(); err != nil {
					return nil, 0, err
				}
			}
			if c.HasHi {
				if c.Hi, err = r.float64(); err != nil {
					return nil, 0, err
				}
			}
		}
		cs = append(cs, c)
	}
	return cs, r.pos, nil
}

// MatchEncoded evaluates ev against an AppendConstraints blob in place:
// the verdict and the number of constraints tested (for cycle charging)
// are those of decoding the blob and testing its constraints in order,
// stopping at the first the event fails, but with no []Constraint and
// no string built per call. Only the bytes up to that first failure are
// read, and every one of them is bounds-checked: a blob truncated
// inside the part read is an ErrCodec. It is the per-event reference
// that Columns.Match, the matching engine's evaluator, is held to event
// by event.
func MatchEncoded(ev *Event, raw []byte) (matched bool, evaluated int, err error) {
	if len(raw) < 2 {
		return false, 0, errShort(2, 0, len(raw))
	}
	n := int(binary.LittleEndian.Uint16(raw))
	pos := 2
	attrs := ev.Attrs
	i := 0
	for k := 1; k <= n; k++ {
		if len(raw)-pos < 3 {
			return false, k, errShort(3, pos, len(raw))
		}
		id := AttrID(binary.LittleEndian.Uint16(raw[pos:]))
		flags := raw[pos+2]
		pos += 3
		for i < len(attrs) && attrs[i].ID < id {
			i++
		}
		if i >= len(attrs) || attrs[i].ID != id {
			return false, k, nil
		}
		v := &attrs[i].Value
		if flags&cfStr != 0 {
			if len(raw)-pos < 2 {
				return false, k, errShort(2, pos, len(raw))
			}
			sl := int(binary.LittleEndian.Uint16(raw[pos:]))
			pos += 2
			if len(raw)-pos < sl {
				return false, k, errShort(sl, pos, len(raw))
			}
			want := raw[pos : pos+sl]
			pos += sl
			// A prefix constraint wants v.S to start with want, an
			// equality also to end there. Comparing a string with
			// string(bytes) does not allocate.
			if v.Kind != KindString || len(v.S) < sl || v.S[:sl] != string(want) {
				return false, k, nil
			}
			if flags&cfPrefix == 0 && len(v.S) != sl {
				return false, k, nil
			}
			continue
		}
		width := 0
		if flags&cfHasLo != 0 {
			width += 8
		}
		if flags&cfHasHi != 0 {
			width += 8
		}
		if len(raw)-pos < width {
			return false, k, errShort(width, pos, len(raw))
		}
		if !v.Numeric() {
			return false, k, nil
		}
		f := v.AsFloat()
		if flags&cfHasLo != 0 {
			lo := math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:]))
			pos += 8
			if belowLo(f, lo, flags&cfLoIncl != 0) {
				return false, k, nil
			}
		}
		if flags&cfHasHi != 0 {
			hi := math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:]))
			pos += 8
			if aboveHi(f, hi, flags&cfHiIncl != 0) {
				return false, k, nil
			}
		}
	}
	return true, n, nil
}

// CoverEncoded decides both covering directions between an
// AppendConstraints blob and a normalised subscription in place:
// blobCovers and subCovers are what Subscription.Covers says of the
// decoded blob over sub and of sub over the decoded blob, and n is the
// blob's constraint count (for cycle charging). Like MatchEncoded it
// builds no []Constraint and no string — the engine's insert runs it on
// every sibling it visits — but it parses the whole blob, every byte
// bounds-checked, so it fails exactly where DecodeConstraints does.
func CoverEncoded(raw []byte, sub *Subscription) (blobCovers, subCovers bool, n int, err error) {
	if len(raw) < 2 {
		return false, false, 0, errShort(2, 0, len(raw))
	}
	n = int(binary.LittleEndian.Uint16(raw))
	pos := 2
	ts := sub.Constraints
	blobCovers, subCovers = true, true
	// The two merge joins of Covers, run side by side over the blob: ja
	// is the constraint of sub the blob's current one is held against,
	// ib the first constraint of sub not yet found in the blob.
	ja, ib := 0, 0
	for k := 0; k < n; k++ {
		if len(raw)-pos < 3 {
			return false, false, 0, errShort(3, pos, len(raw))
		}
		flags := raw[pos+2]
		d := Constraint{
			ID:     AttrID(binary.LittleEndian.Uint16(raw[pos:])),
			Str:    flags&cfStr != 0,
			Prefix: flags&cfPrefix != 0,
			HasLo:  flags&cfHasLo != 0,
			HasHi:  flags&cfHasHi != 0,
			LoIncl: flags&cfLoIncl != 0,
			HiIncl: flags&cfHiIncl != 0,
		}
		pos += 3
		// A string constraint's value stays in the blob: s, not d.EqS.
		var s []byte
		if d.Str {
			if len(raw)-pos < 2 {
				return false, false, 0, errShort(2, pos, len(raw))
			}
			sl := int(binary.LittleEndian.Uint16(raw[pos:]))
			pos += 2
			if len(raw)-pos < sl {
				return false, false, 0, errShort(sl, pos, len(raw))
			}
			s = raw[pos : pos+sl]
			pos += sl
		} else {
			width := 0
			if d.HasLo {
				width += 8
			}
			if d.HasHi {
				width += 8
			}
			if len(raw)-pos < width {
				return false, false, 0, errShort(width, pos, len(raw))
			}
			if d.HasLo {
				d.Lo = math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:]))
				pos += 8
			}
			if d.HasHi {
				d.Hi = math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:]))
				pos += 8
			}
		}
		if blobCovers {
			for ja < len(ts) && ts[ja].ID < d.ID {
				ja++
			}
			blobCovers = ja < len(ts) && ts[ja].ID == d.ID && encodedCovers(d, s, &ts[ja])
		}
		for subCovers && ib < len(ts) && ts[ib].ID <= d.ID {
			subCovers = ts[ib].ID == d.ID && coversEncoded(&ts[ib], d, s)
			ib++
		}
	}
	return blobCovers, subCovers && ib == len(ts), n, nil
}

// encodedCovers is Constraint.Covers for d (string value s) over c.
func encodedCovers(d Constraint, s []byte, c *Constraint) bool {
	if !d.Str && !c.Str {
		return d.Covers(*c)
	}
	switch {
	case !d.Str || !c.Str:
		return false
	case d.Prefix:
		return len(c.EqS) >= len(s) && c.EqS[:len(s)] == string(s)
	case c.Prefix:
		return false
	default:
		return c.EqS == string(s)
	}
}

// coversEncoded is Constraint.Covers for c over d (string value s).
func coversEncoded(c *Constraint, d Constraint, s []byte) bool {
	if !c.Str && !d.Str {
		return c.Covers(d)
	}
	switch {
	case !c.Str || !d.Str:
		return false
	case c.Prefix:
		return len(s) >= len(c.EqS) && string(s[:len(c.EqS)]) == c.EqS
	case d.Prefix:
		return false
	default:
		return string(s) == c.EqS
	}
}

// value kind tags on the wire.
const (
	wireInt    = 1
	wireFloat  = 2
	wireString = 3
)

func appendValue(buf []byte, v Value) ([]byte, error) {
	var u64 [8]byte
	switch v.Kind {
	case KindInt:
		buf = append(buf, wireInt)
		binary.LittleEndian.PutUint64(u64[:], uint64(v.I))
		return append(buf, u64[:]...), nil
	case KindFloat:
		buf = append(buf, wireFloat)
		binary.LittleEndian.PutUint64(u64[:], math.Float64bits(v.F))
		return append(buf, u64[:]...), nil
	case KindString:
		if len(v.S) > math.MaxUint16 {
			return nil, fmt.Errorf("pubsub: string value too long (%d)", len(v.S))
		}
		buf = append(buf, wireString)
		var u16 [2]byte
		binary.LittleEndian.PutUint16(u16[:], uint16(len(v.S)))
		buf = append(buf, u16[:]...)
		return append(buf, v.S...), nil
	default:
		return nil, fmt.Errorf("pubsub: cannot encode invalid value kind %d", v.Kind)
	}
}

func appendString8(buf []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint8 {
		return nil, fmt.Errorf("pubsub: attribute name too long (%d)", len(s))
	}
	buf = append(buf, byte(len(s)))
	return append(buf, s...), nil
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) need(n int) error {
	if r.pos+n > len(r.buf) {
		return errShort(n, r.pos, len(r.buf))
	}
	return nil
}

// errShort reports that n bytes were needed at pos of a size-byte
// buffer.
func errShort(n, pos, size int) error {
	return fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrCodec, n, pos, size-pos)
}

func (r *reader) byte() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) uint16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) uint64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *reader) float64() (float64, error) {
	u, err := r.uint64()
	return math.Float64frombits(u), err
}

// bytes returns a view of the next n bytes.
func (r *reader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) string8() (string, error) {
	n, err := r.byte()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	return string(b), err
}

func (r *reader) string16() (string, error) {
	n, err := r.uint16()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	return string(b), err
}

func (r *reader) value() (Value, error) {
	tag, err := r.byte()
	if err != nil {
		return Value{}, err
	}
	switch tag {
	case wireInt:
		u, err := r.uint64()
		return Value{Kind: KindInt, I: int64(u)}, err
	case wireFloat:
		f, err := r.float64()
		if err == nil && math.IsNaN(f) {
			err = fmt.Errorf("%w: NaN value", ErrCodec)
		}
		return Value{Kind: KindFloat, F: f}, err
	case wireString:
		s, err := r.string16()
		return Value{Kind: KindString, S: s}, err
	default:
		return Value{}, fmt.Errorf("%w: unknown value tag %d", ErrCodec, tag)
	}
}

func (r *reader) done() bool     { return r.pos == len(r.buf) }
func (r *reader) remaining() int { return len(r.buf) - r.pos }
