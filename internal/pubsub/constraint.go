package pubsub

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Constraint is the normalised per-attribute form of one or more
// predicates: either a string equality or a numeric interval with
// optional open/closed bounds. Subscriptions normalise to a sorted
// slice of constraints, one per attribute — the representation both
// the covering test and the matcher operate on.
type Constraint struct {
	ID AttrID
	// Str marks a string-domain constraint; EqS holds the value. With
	// Prefix set the constraint is a prefix match, otherwise equality.
	Str    bool
	Prefix bool
	EqS    string
	// Numeric interval. HasLo/HasHi mark bound presence; LoIncl/HiIncl
	// mark closedness.
	HasLo, HasHi   bool
	LoIncl, HiIncl bool
	Lo, Hi         float64
}

// Subscription is the engine-internal normalised subscription.
type Subscription struct {
	// Constraints are sorted by attribute ID and hold at most one entry
	// per attribute.
	Constraints []Constraint
}

// Normalize interns attribute names and folds the spec's predicates
// into per-attribute constraints, intersecting ranges. It rejects
// empty and unsatisfiable specs.
func Normalize(schema *Schema, spec SubscriptionSpec) (*Subscription, error) {
	if len(spec.Predicates) == 0 {
		return nil, ErrEmptySubscription
	}
	cs := make([]Constraint, 0, len(spec.Predicates))
	for _, p := range spec.Predicates {
		if err := p.validate(); err != nil {
			return nil, err
		}
		id, err := schema.Intern(p.Attr)
		if err != nil {
			return nil, err
		}
		next, err := predicateConstraint(id, p)
		if err != nil {
			return nil, err
		}
		i := slices.IndexFunc(cs, func(c Constraint) bool { return c.ID == id })
		if i < 0 {
			cs = append(cs, next)
			continue
		}
		merged, err := intersect(cs[i], next)
		if err != nil {
			return nil, fmt.Errorf("%w: conflicting predicates on %q", err, p.Attr)
		}
		cs[i] = merged
	}
	slices.SortFunc(cs, func(a, b Constraint) int { return cmp.Compare(a.ID, b.ID) })
	return &Subscription{Constraints: cs}, nil
}

func predicateConstraint(id AttrID, p Predicate) (Constraint, error) {
	c := Constraint{ID: id}
	switch p.Op {
	case OpEq:
		if p.Value.Kind == KindString {
			c.Str = true
			c.EqS = p.Value.S
			return c, nil
		}
		v := p.Value.AsFloat()
		c.HasLo, c.HasHi, c.LoIncl, c.HiIncl = true, true, true, true
		c.Lo, c.Hi = v, v
		return c, nil
	case OpLt:
		c.HasHi, c.Hi = true, p.Value.AsFloat()
		return c, nil
	case OpLe:
		c.HasHi, c.HiIncl, c.Hi = true, true, p.Value.AsFloat()
		return c, nil
	case OpGt:
		c.HasLo, c.Lo = true, p.Value.AsFloat()
		return c, nil
	case OpGe:
		c.HasLo, c.LoIncl, c.Lo = true, true, p.Value.AsFloat()
		return c, nil
	case OpBetween:
		lo, hi := p.Value.AsFloat(), p.Hi.AsFloat()
		if lo > hi {
			return c, fmt.Errorf("%w: between bounds inverted", ErrUnsatisfiable)
		}
		c.HasLo, c.HasHi, c.LoIncl, c.HiIncl = true, true, true, true
		c.Lo, c.Hi = lo, hi
		return c, nil
	case OpPrefix:
		c.Str = true
		c.Prefix = true
		c.EqS = p.Value.S
		return c, nil
	default:
		return c, fmt.Errorf("pubsub: unknown operator %d", p.Op)
	}
}

// intersect combines two constraints on the same attribute.
func intersect(a, b Constraint) (Constraint, error) {
	if a.Str != b.Str {
		return a, ErrUnsatisfiable
	}
	if a.Str {
		return intersectString(a, b)
	}
	out := a
	if b.HasLo && (!out.HasLo || b.Lo > out.Lo || (b.Lo == out.Lo && !b.LoIncl)) {
		out.HasLo, out.Lo, out.LoIncl = true, b.Lo, b.LoIncl
	}
	if b.HasHi && (!out.HasHi || b.Hi < out.Hi || (b.Hi == out.Hi && !b.HiIncl)) {
		out.HasHi, out.Hi, out.HiIncl = true, b.Hi, b.HiIncl
	}
	if out.Empty() {
		return out, ErrUnsatisfiable
	}
	return out, nil
}

// intersectString folds two string-domain constraints.
func intersectString(a, b Constraint) (Constraint, error) {
	switch {
	case !a.Prefix && !b.Prefix: // eq ∧ eq
		if a.EqS != b.EqS {
			return a, ErrUnsatisfiable
		}
		return a, nil
	case a.Prefix && b.Prefix: // prefix ∧ prefix: the longer wins
		if strings.HasPrefix(a.EqS, b.EqS) {
			return a, nil
		}
		if strings.HasPrefix(b.EqS, a.EqS) {
			return b, nil
		}
		return a, ErrUnsatisfiable
	case a.Prefix: // prefix ∧ eq
		if !strings.HasPrefix(b.EqS, a.EqS) {
			return a, ErrUnsatisfiable
		}
		return b, nil
	default: // eq ∧ prefix
		if !strings.HasPrefix(a.EqS, b.EqS) {
			return a, ErrUnsatisfiable
		}
		return a, nil
	}
}

// Empty reports whether a numeric constraint admits no value.
func (c Constraint) Empty() bool {
	if c.Str {
		return false
	}
	if !c.HasLo || !c.HasHi {
		return false
	}
	if c.Lo > c.Hi {
		return true
	}
	return c.Lo == c.Hi && !(c.LoIncl && c.HiIncl)
}

// SatisfiedBy reports whether value v satisfies the constraint.
func (c Constraint) SatisfiedBy(v Value) bool {
	if c.Str {
		if v.Kind != KindString {
			return false
		}
		if c.Prefix {
			return strings.HasPrefix(v.S, c.EqS)
		}
		return v.S == c.EqS
	}
	if !v.Numeric() {
		return false
	}
	f := v.AsFloat()
	if c.HasLo && belowLo(f, c.Lo, c.LoIncl) {
		return false
	}
	if c.HasHi && aboveHi(f, c.Hi, c.HiIncl) {
		return false
	}
	return true
}

// belowLo reports whether f violates the lower bound lo, closed when
// incl. SatisfiedBy and the in-place evaluators (MatchEncoded,
// Columns.Match) share it and aboveHi, so they cannot disagree on a
// bound.
func belowLo(f, lo float64, incl bool) bool {
	if incl {
		return f < lo
	}
	return f <= lo
}

// aboveHi reports whether f violates the upper bound hi, closed when
// incl.
func aboveHi(f, hi float64, incl bool) bool {
	if incl {
		return f > hi
	}
	return f >= hi
}

// Covers reports whether c admits every value that d admits (c ⊒ d for
// single attributes): d's interval (or string set) is included in c's.
func (c Constraint) Covers(d Constraint) bool {
	if c.Str || d.Str {
		if !c.Str || !d.Str {
			return false
		}
		switch {
		case c.Prefix && d.Prefix:
			return strings.HasPrefix(d.EqS, c.EqS)
		case c.Prefix: // prefix covers any equality extending it
			return strings.HasPrefix(d.EqS, c.EqS)
		case d.Prefix: // an equality never covers an (infinite) prefix set
			return false
		default:
			return c.EqS == d.EqS
		}
	}
	if c.HasLo {
		if !d.HasLo {
			return false
		}
		if d.Lo < c.Lo {
			return false
		}
		if d.Lo == c.Lo && !c.LoIncl && d.LoIncl {
			return false
		}
	}
	if c.HasHi {
		if !d.HasHi {
			return false
		}
		if d.Hi > c.Hi {
			return false
		}
		if d.Hi == c.Hi && !c.HiIncl && d.HiIncl {
			return false
		}
	}
	return true
}

// Equal reports structural equality of constraints.
func (c Constraint) Equal(d Constraint) bool {
	if c.ID != d.ID || c.Str != d.Str {
		return false
	}
	if c.Str {
		return c.Prefix == d.Prefix && c.EqS == d.EqS
	}
	if c.HasLo != d.HasLo || c.HasHi != d.HasHi {
		return false
	}
	if c.HasLo && (c.Lo != d.Lo || c.LoIncl != d.LoIncl) {
		return false
	}
	if c.HasHi && (c.Hi != d.Hi || c.HiIncl != d.HiIncl) {
		return false
	}
	return true
}

// IsEquality reports whether the constraint pins the attribute to a
// single value (string equality or a degenerate closed interval).
// Table 1 classifies subscriptions by their number of equality
// predicates, and the engine shards by equality values; prefix
// constraints are not equalities.
func (c Constraint) IsEquality() bool {
	if c.Str {
		return !c.Prefix
	}
	return c.HasLo && c.HasHi && c.Lo == c.Hi && c.LoIncl && c.HiIncl
}

// Event is a publication header after attribute interning: attribute
// values sorted by ID.
type Event struct {
	Attrs []EventAttr
}

// EventAttr is one attribute of an event.
type EventAttr struct {
	ID    AttrID
	Value Value
}

// Get returns the value of attribute id.
func (e *Event) Get(id AttrID) (Value, bool) {
	// Events carry ≤ a few dozen attributes; binary search on the
	// sorted slice.
	lo, hi := 0, len(e.Attrs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case e.Attrs[mid].ID < id:
			lo = mid + 1
		case e.Attrs[mid].ID > id:
			hi = mid
		default:
			return e.Attrs[mid].Value, true
		}
	}
	return Value{}, false
}

// Matches reports whether the event satisfies every constraint of the
// subscription. Both sides are sorted by attribute ID, so this is a
// merge join.
func (s *Subscription) Matches(e *Event) bool {
	i := 0
	for _, c := range s.Constraints {
		for i < len(e.Attrs) && e.Attrs[i].ID < c.ID {
			i++
		}
		if i >= len(e.Attrs) || e.Attrs[i].ID != c.ID {
			return false
		}
		if !c.SatisfiedBy(e.Attrs[i].Value) {
			return false
		}
	}
	return true
}

// Covers reports the containment relation of §3.2: s ⊒ t iff every
// event matching t also matches s. Structurally: every constraint of s
// appears in t (same attribute) at least as tight.
func (s *Subscription) Covers(t *Subscription) bool {
	j := 0
	for _, cs := range s.Constraints {
		for j < len(t.Constraints) && t.Constraints[j].ID < cs.ID {
			j++
		}
		if j >= len(t.Constraints) || t.Constraints[j].ID != cs.ID {
			return false
		}
		if !cs.Covers(t.Constraints[j]) {
			return false
		}
	}
	return true
}

// Equal reports whether two subscriptions have identical constraints.
func (s *Subscription) Equal(t *Subscription) bool {
	if len(s.Constraints) != len(t.Constraints) {
		return false
	}
	for i := range s.Constraints {
		if !s.Constraints[i].Equal(t.Constraints[i]) {
			return false
		}
	}
	return true
}

// EqualityAttr returns the ID of the first equality constraint, used by
// the engine to shard its containment forest, and ok=false when the
// subscription has no equality constraint.
func (s *Subscription) EqualityAttr() (AttrID, Value, bool) {
	for _, c := range s.Constraints {
		if !c.IsEquality() {
			continue
		}
		if c.Str {
			return c.ID, Str(c.EqS), true
		}
		return c.ID, Float(c.Lo), true
	}
	return 0, Value{}, false
}

// NumEqualities counts equality constraints (Table 1 classification).
func (s *Subscription) NumEqualities() int {
	n := 0
	for _, c := range s.Constraints {
		if c.IsEquality() {
			n++
		}
	}
	return n
}

// AttrSet is a 32-bit signature of the attributes a subscription
// constrains: bit ID mod 32 for each. Since s ⊒ t requires every
// attribute of s to be constrained in t, it requires s's set to be a
// subset of t's, bit for bit.
type AttrSet uint32

// Outline summarises the subscription for the engine's child tables: its
// attribute set and its first numeric constraint (ok is false when it
// has none). OutlineEncoded gives the same of its stored blob.
func (s *Subscription) Outline() (attrs AttrSet, first Constraint, ok bool) {
	for _, c := range s.Constraints {
		attrs |= 1 << (c.ID % 32)
		if !ok && !c.Str {
			first, ok = c, true
		}
	}
	return attrs, first, ok
}

// NewEvent interns and sorts the given named values into an Event.
// Names the schema has not seen are interned in sorted order, not in
// the map's, so a run that meets its names through events assigns the
// same attribute IDs every time.
func NewEvent(schema *Schema, attrs map[string]Value) (*Event, error) {
	e := &Event{Attrs: make([]EventAttr, 0, len(attrs))}
	var fresh []string
	for name, v := range attrs {
		if !v.Valid() {
			return nil, fmt.Errorf("pubsub: invalid value for attribute %q", name)
		}
		if v.isNaN() {
			return nil, fmt.Errorf("%w: NaN value for attribute %q", ErrCodec, name)
		}
		if id, ok := schema.Lookup(name); ok {
			e.Attrs = append(e.Attrs, EventAttr{ID: id, Value: v})
		} else {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		id, err := schema.Intern(name)
		if err != nil {
			return nil, err
		}
		e.Attrs = append(e.Attrs, EventAttr{ID: id, Value: attrs[name]})
	}
	sort.Slice(e.Attrs, func(i, j int) bool { return e.Attrs[i].ID < e.Attrs[j].ID })
	return e, nil
}

// Unbounded returns ±Inf helpers for workload construction.
func Unbounded() (float64, float64) { return math.Inf(-1), math.Inf(1) }

// String renders a constraint for diagnostics.
func (c Constraint) String() string {
	if c.Str {
		if c.Prefix {
			return fmt.Sprintf("#%d prefix %q", c.ID, c.EqS)
		}
		return fmt.Sprintf("#%d = %q", c.ID, c.EqS)
	}
	lo, hi := "(-inf", "+inf)"
	if c.HasLo {
		br := "("
		if c.LoIncl {
			br = "["
		}
		lo = fmt.Sprintf("%s%g", br, c.Lo)
	}
	if c.HasHi {
		br := ")"
		if c.HiIncl {
			br = "]"
		}
		hi = fmt.Sprintf("%g%s", c.Hi, br)
	}
	return fmt.Sprintf("#%d in %s, %s", c.ID, lo, hi)
}

// String renders the normalised subscription for diagnostics.
func (s *Subscription) String() string {
	parts := make([]string, len(s.Constraints))
	for i, c := range s.Constraints {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ∧ ")
}
