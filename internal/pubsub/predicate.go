package pubsub

import (
	"errors"
	"fmt"
	"strings"
)

// Op is a predicate operator.
type Op uint8

// Predicate operators. The paper's subscriptions combine equality
// constraints with "generally any kind of ranges over the values of
// the attributes" (§3.2); these operators span that space.
const (
	OpEq Op = iota + 1
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween // inclusive on both ends
	// OpPrefix matches string values beginning with the operand. An
	// extension over the paper's equality/range predicates, inspired by
	// the prefix-matching schemes of its related work (Li et al.; Ion
	// et al.); prefixes participate in containment (prefix "ab" covers
	// both "abc..." prefixes and symbol = "abX" equalities).
	OpPrefix
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "between"
	case OpPrefix:
		return "prefix"
	default:
		return "op?"
	}
}

// Predicate is one constraint of a subscription in its user-facing
// form, e.g. symbol = "HAL" or price < 50.
type Predicate struct {
	Attr  string
	Op    Op
	Value Value
	// Hi is the upper bound for OpBetween and unused otherwise.
	Hi Value
}

func (p Predicate) String() string {
	if p.Op == OpBetween {
		return fmt.Sprintf("%s in [%s, %s]", p.Attr, p.Value, p.Hi)
	}
	return fmt.Sprintf("%s %s %s", p.Attr, p.Op, p.Value)
}

// SubscriptionSpec is the wire-level form of a subscription: a
// conjunction of predicates, attribute names not yet interned.
type SubscriptionSpec struct {
	Predicates []Predicate
}

func (s SubscriptionSpec) String() string {
	parts := make([]string, len(s.Predicates))
	for i, p := range s.Predicates {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Errors returned while normalising specs.
var (
	ErrEmptySubscription = errors.New("pubsub: subscription has no predicates")
	ErrUnsatisfiable     = errors.New("pubsub: subscription is unsatisfiable")
)

// validate checks a single predicate for structural problems.
func (p Predicate) validate() error {
	if p.Attr == "" {
		return errors.New("pubsub: predicate with empty attribute name")
	}
	if !p.Value.Valid() {
		return fmt.Errorf("pubsub: predicate on %q has invalid value", p.Attr)
	}
	if p.Value.isNaN() || p.Op == OpBetween && p.Hi.isNaN() {
		return fmt.Errorf("%w: NaN value in predicate on %q", ErrCodec, p.Attr)
	}
	switch p.Op {
	case OpEq:
		return nil
	case OpLt, OpLe, OpGt, OpGe:
		if !p.Value.Numeric() {
			return fmt.Errorf("pubsub: range operator %s on non-numeric attribute %q", p.Op, p.Attr)
		}
		return nil
	case OpBetween:
		if !p.Value.Numeric() || !p.Hi.Numeric() {
			return fmt.Errorf("pubsub: between on non-numeric attribute %q", p.Attr)
		}
		return nil
	case OpPrefix:
		if p.Value.Kind != KindString {
			return fmt.Errorf("pubsub: prefix operator on non-string attribute %q", p.Attr)
		}
		return nil
	default:
		return fmt.Errorf("pubsub: unknown operator %d on %q", p.Op, p.Attr)
	}
}
