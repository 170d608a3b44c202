package pubsub

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// normalizeRef is Normalize as it was written first: a map from
// attribute to constraint, one heap constraint per attribute, and a
// reflective sort. It is the reference the slice-merging Normalize is
// held to.
func normalizeRef(schema *Schema, spec SubscriptionSpec) (*Subscription, error) {
	if len(spec.Predicates) == 0 {
		return nil, ErrEmptySubscription
	}
	byID := make(map[AttrID]*Constraint, len(spec.Predicates))
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
		cur, ok := byID[id]
		if !ok {
			byID[id] = &next
			continue
		}
		merged, err := intersect(*cur, next)
		if err != nil {
			return nil, fmt.Errorf("%w: conflicting predicates on %q", err, p.Attr)
		}
		byID[id] = &merged
	}
	sub := &Subscription{Constraints: make([]Constraint, 0, len(byID))}
	for _, c := range byID {
		sub.Constraints = append(sub.Constraints, *c)
	}
	sort.Slice(sub.Constraints, func(i, j int) bool {
		return sub.Constraints[i].ID < sub.Constraints[j].ID
	})
	return sub, nil
}

// fuzzPredicates reads a predicate list from raw, four bytes a
// predicate: attribute (from a small set, the empty name included),
// operator (the unknown 0 and 8 included), and two values from a ladder
// of numbers, ±Inf and NaN, and strings, so attributes repeat, ranges
// intersect, conflict or meet at a point, and prefixes nest or clash.
func fuzzPredicates(raw []byte) []Predicate {
	attrs := []string{"price", "volume", "symbol", "venue", "", "open"}
	values := []Value{
		Float(0), Float(10), Float(10), Float(20), Int(5), Int(20),
		Float(math.Inf(-1)), Float(math.Inf(1)), Float(math.NaN()), Float(math.Copysign(0, -1)),
		Str(""), Str("H"), Str("HA"), Str("HAL"), Str("IBM"), {},
	}
	var ps []Predicate
	for ; len(raw) >= 4; raw = raw[4:] {
		ps = append(ps, Predicate{
			Attr:  attrs[int(raw[0])%len(attrs)],
			Op:    Op(raw[1] % 9),
			Value: values[int(raw[2])%len(values)],
			Hi:    values[int(raw[3])%len(values)],
		})
	}
	return ps
}

// FuzzNormalize holds Normalize to normalizeRef on arbitrary predicate
// lists: the same constraints bit for bit, the same schema, or the same
// error text with the same ErrEmptySubscription, ErrUnsatisfiable and
// ErrCodec wrapping.
func FuzzNormalize(f *testing.F) {
	f.Add([]byte{0, 4, 1, 0, 0, 2, 3, 0, 1, 1, 0, 0, 2, 1, 13, 0})
	f.Add([]byte{0, 5, 3, 0, 0, 3, 3, 0})             // price < 20 ∧ price > 20
	f.Add([]byte{0, 6, 2, 1, 0, 6, 0, 3, 0, 2, 1, 0}) // between, nested, then a cut
	f.Add([]byte{2, 7, 12, 0, 2, 7, 11, 0, 2, 1, 13, 0, 3, 1, 14, 0})
	f.Add([]byte{2, 7, 12, 0, 2, 1, 14, 0})
	f.Add([]byte{0, 2, 8, 0})
	f.Add([]byte{4, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 8, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec := SubscriptionSpec{Predicates: fuzzPredicates(raw)}
		gotSchema, wantSchema := NewSchema(), NewSchema()
		got, gotErr := Normalize(gotSchema, spec)
		want, wantErr := normalizeRef(wantSchema, spec)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%+v: Normalize err = %v, reference err = %v", spec.Predicates, gotErr, wantErr)
		}
		for _, target := range []error{ErrEmptySubscription, ErrUnsatisfiable, ErrCodec} {
			if errors.Is(gotErr, target) != errors.Is(wantErr, target) {
				t.Fatalf("%+v: errors.Is(%v, %v) differs from the reference's %v", spec.Predicates, gotErr, target, wantErr)
			}
		}
		if !reflect.DeepEqual(gotSchema, wantSchema) {
			t.Fatalf("%+v: schemas differ", spec.Predicates)
		}
		if gotErr != nil {
			return
		}
		if len(got.Constraints) != len(want.Constraints) {
			t.Fatalf("%+v: %d constraints, reference %d", spec.Predicates, len(got.Constraints), len(want.Constraints))
		}
		for i := range got.Constraints {
			if !sameConstraintBits(got.Constraints[i], want.Constraints[i]) {
				t.Fatalf("%+v: constraint %d is %+v, reference %+v", spec.Predicates, i, got.Constraints[i], want.Constraints[i])
			}
		}
	})
}
