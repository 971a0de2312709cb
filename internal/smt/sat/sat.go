// Package sat is the satisfiability core shared by the OptSMT baseline's
// problem encoding and the DSL program analyzer. Guardrail conditions are
// conjunctions of equality atoms over categorical attributes, so the full
// decision procedure is tractable: a conjunction is satisfiable iff no
// attribute is bound to two different literals, and implication between
// conjunctions reduces to atom-set containment after normalization.
package sat

import "github.com/guardrail-db/guardrail/internal/dsl"

// Normalize returns c's atoms as a map attr -> literal together with a
// satisfiability verdict. An attribute bound to two different literals makes
// the conjunction unsatisfiable (no categorical row can take both values);
// duplicate identical atoms collapse.
func Normalize(c dsl.Condition) (map[int]int32, bool) {
	bound := make(map[int]int32, len(c))
	for _, p := range c {
		if v, ok := bound[p.Attr]; ok {
			if v != p.Value {
				return bound, false
			}
			continue
		}
		bound[p.Attr] = p.Value
	}
	return bound, true
}

// Satisfiable reports whether some row can satisfy c.
func Satisfiable(c dsl.Condition) bool {
	_, ok := Normalize(c)
	return ok
}

// Implies reports whether every row satisfying a also satisfies b
// (a ⇒ b). For conjunctions of equality atoms this holds iff b's atoms are
// a subset of a's. An unsatisfiable a implies everything (vacuous truth).
func Implies(a, b dsl.Condition) bool {
	na, okA := Normalize(a)
	if !okA {
		return true
	}
	nb, okB := Normalize(b)
	if !okB {
		return false
	}
	for attr, v := range nb {
		if va, ok := na[attr]; !ok || va != v {
			return false
		}
	}
	return true
}

// Equivalent reports whether a and b are satisfied by exactly the same rows.
func Equivalent(a, b dsl.Condition) bool {
	return Implies(a, b) && Implies(b, a)
}

// Overlap reports whether the conjunction a AND b is satisfiable — i.e.
// whether some row matches both conditions. Two conditions overlap iff they
// are individually satisfiable and agree on every shared attribute.
func Overlap(a, b dsl.Condition) bool {
	na, okA := Normalize(a)
	if !okA {
		return false
	}
	nb, okB := Normalize(b)
	if !okB {
		return false
	}
	for attr, v := range nb {
		if va, ok := na[attr]; ok && va != v {
			return false
		}
	}
	return true
}
