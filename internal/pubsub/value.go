// Package pubsub defines the data model of the SCBR content-based
// router: typed attribute values, events (publication headers),
// subscription predicates, their normalised constraint form, and the
// containment ("covering") relation the matching engine is built on.
//
// Messages in the paper carry a header of 8–11 attributes with
// associated values; subscriptions are conjunctions of equality and
// range predicates over those attributes (§3.2).
package pubsub

import (
	"fmt"
	"strconv"
)

// ValueKind discriminates attribute value types.
type ValueKind uint8

// Supported kinds. Numeric kinds (Int, Float) share a comparison
// domain; strings support equality only, as in the paper's stock-quote
// workloads (symbol equality plus numeric ranges).
const (
	KindInt ValueKind = iota + 1
	KindFloat
	KindString
)

func (k ValueKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return "invalid"
	}
}

// Value is one attribute value. The zero Value is invalid.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	S    string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// String returns a string value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Numeric reports whether the value participates in range comparisons.
func (v Value) Numeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// AsFloat returns the numeric value as float64. Int values up to 2⁵³
// convert exactly, which comfortably covers quote volumes and prices.
func (v Value) AsFloat() float64 {
	if v.Kind == KindInt {
		return float64(v.I)
	}
	return v.F
}

// Valid reports whether the value has a known kind.
func (v Value) Valid() bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindString
}

// isNaN reports whether the value is a float NaN. The header and
// subscription decoders, Normalize and NewEvent refuse one with
// ErrCodec: no bound rejects a NaN (belowLo and aboveHi are false for
// it either side), so a NaN event would match every range on its
// attribute and a NaN bound would bound nothing. ±Inf are ordinary
// values.
func (v Value) isNaN() bool { return v.Kind == KindFloat && v.F != v.F }

// Equal reports deep equality (kind-sensitive: Int(1) ≠ Float(1)).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	case KindString:
		return v.S == o.S
	default:
		return false
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	default:
		return fmt.Sprintf("invalid(%d)", v.Kind)
	}
}
