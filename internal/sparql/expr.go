package sparql

import (
	"fmt"
	"strings"

	"alex/internal/rdf"
)

// Expr is a FILTER or BIND expression: one of VarExpr, ConstExpr, CmpExpr,
// ArithExpr, LogicExpr, NotExpr and CallExpr, evaluated against a row by
// the engine (slotexpr.go). Evaluation errors (unbound variables, type
// mismatches) make a filter reject the row, per SPARQL error-as-false
// semantics for FILTER.
type Expr interface {
	String() string
	expr()
}

func (VarExpr) expr()   {}
func (ConstExpr) expr() {}
func (CmpExpr) expr()   {}
func (ArithExpr) expr() {}
func (LogicExpr) expr() {}
func (NotExpr) expr()   {}
func (CallExpr) expr()  {}

// Binding maps variable names to terms.
type Binding map[string]rdf.Term

var (
	termTrue  = rdf.NewTyped("true", rdf.XSDBoolean)
	termFalse = rdf.NewTyped("false", rdf.XSDBoolean)
)

func boolTerm(v bool) rdf.Term {
	if v {
		return termTrue
	}
	return termFalse
}

// EBV returns the effective boolean value of a term.
func EBV(t rdf.Term) (bool, error) {
	if t.Kind == rdf.KindLiteral {
		if t.Datatype == rdf.XSDBoolean {
			return t.Value == "true" || t.Value == "1", nil
		}
		if t.Datatype == rdf.XSDInteger || t.Datatype == rdf.XSDDouble || t.Datatype == "" {
			if f, ok := numericValue(t); ok {
				return f != 0, nil
			}
		}
		return t.Value != "", nil
	}
	return false, fmt.Errorf("no effective boolean value for %s", t)
}

// numericValue is the one test for "this term is a number" that equality,
// arithmetic, effective boolean values, ORDER BY and the numeric
// aggregates share: a literal in plain decimal notation. The shape is
// checked before the parse, so a label or an IRI costs a scan of its
// first characters and never a strconv error value.
func numericValue(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.KindLiteral || !looksNumeric(t.Value) {
		return 0, false
	}
	// Digits past float64's range still fail here, and are then no number.
	if f, ok := t.AsFloat(); ok {
		return f, true
	}
	return 0, false
}

// looksNumeric reports whether s, spaces trimmed, is an optional sign and
// decimal digits around at most one point, with at least one digit:
// exactly the strings of that alphabet strconv.ParseFloat accepts.
// Exponents, hex, underscores, "Inf" and "NaN" are deliberately not
// numbers here.
func looksNumeric(s string) bool {
	s = strings.TrimSpace(s)
	if s != "" && (s[0] == '-' || s[0] == '+') {
		s = s[1:]
	}
	digits, point := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			digits++
		case c == '.' && !point:
			point = true
		default:
			return false
		}
	}
	return digits > 0
}

// VarExpr references a variable.
type VarExpr struct{ Name string }

func (e VarExpr) String() string { return "?" + e.Name }

// ConstExpr is a constant term.
type ConstExpr struct{ Term rdf.Term }

func (e ConstExpr) String() string { return e.Term.String() }

// CmpExpr is a binary comparison: = != < > <= >=.
type CmpExpr struct {
	Op          string
	Left, Right Expr
}

// cmpTerms applies a comparison operator to two evaluated terms:
// numerically when both sides are numeric, otherwise by string value (with
// full term equality for = / !=).
func cmpTerms(op string, l, r rdf.Term) (rdf.Term, error) {
	switch op {
	case "=":
		return boolTerm(termsEqual(l, r)), nil
	case "!=":
		return boolTerm(!termsEqual(l, r)), nil
	}
	// Ordering comparisons.
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	var cmp int
	if lok && rok {
		switch {
		case lf < rf:
			cmp = -1
		case lf > rf:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(l.Value, r.Value)
	}
	switch op {
	case "<":
		return boolTerm(cmp < 0), nil
	case ">":
		return boolTerm(cmp > 0), nil
	case "<=":
		return boolTerm(cmp <= 0), nil
	case ">=":
		return boolTerm(cmp >= 0), nil
	default:
		return rdf.Term{}, fmt.Errorf("unknown comparison %q", op)
	}
}

func (e CmpExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}

// termsEqual implements SPARQL value equality: numeric literals compare by
// value, everything else by exact term identity.
func termsEqual(l, r rdf.Term) bool {
	if l == r {
		return true
	}
	if l.Kind == rdf.KindLiteral && r.Kind == rdf.KindLiteral {
		if lf, lok := numericValue(l); lok {
			if rf, rok := numericValue(r); rok {
				return lf == rf
			}
		}
		// Plain vs xsd:string literals are the same value.
		if l.Lang == r.Lang && l.Value == r.Value {
			ld, rd := l.Datatype, r.Datatype
			if ld == rdf.XSDString {
				ld = ""
			}
			if rd == rdf.XSDString {
				rd = ""
			}
			return ld == rd
		}
	}
	return false
}

// ArithExpr is a binary arithmetic expression over numeric literals.
type ArithExpr struct {
	Op          byte // '+', '-', '*', '/'
	Left, Right Expr
}

// arithTerms applies an arithmetic operator to two evaluated terms;
// non-numeric operands or division by zero are evaluation errors
// (error-as-false in FILTER, unbound in BIND).
func arithTerms(op byte, l, r rdf.Term) (rdf.Term, error) {
	lf, lok := numericValue(l)
	rf, rok := numericValue(r)
	if !lok || !rok {
		return rdf.Term{}, fmt.Errorf("non-numeric operand for %c", op)
	}
	var v float64
	switch op {
	case '+':
		v = lf + rf
	case '-':
		v = lf - rf
	case '*':
		v = lf * rf
	case '/':
		if rf == 0 {
			return rdf.Term{}, fmt.Errorf("division by zero")
		}
		v = lf / rf
	default:
		return rdf.Term{}, fmt.Errorf("unknown arithmetic op %c", op)
	}
	return numericTerm(v), nil
}

func (e ArithExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", e.Left, e.Op, e.Right)
}

// LogicExpr is && or ||.
type LogicExpr struct {
	Op          string // "&&" or "||"
	Left, Right Expr
}

// logicCombine merges independently evaluated operand results under
// SPARQL's error-tolerant boolean logic: for ||, a true side wins even if
// the other errors; for &&, a false side wins likewise.
func logicCombine(op string, lv bool, lerr error, rv bool, rerr error) (rdf.Term, error) {
	switch op {
	case "&&":
		if lerr == nil && !lv || rerr == nil && !rv {
			return termFalse, nil
		}
		if lerr != nil {
			return rdf.Term{}, lerr
		}
		if rerr != nil {
			return rdf.Term{}, rerr
		}
		return boolTerm(lv && rv), nil
	case "||":
		if lerr == nil && lv || rerr == nil && rv {
			return termTrue, nil
		}
		if lerr != nil {
			return rdf.Term{}, lerr
		}
		if rerr != nil {
			return rdf.Term{}, rerr
		}
		return boolTerm(lv || rv), nil
	default:
		return rdf.Term{}, fmt.Errorf("unknown logic op %q", op)
	}
}

func (e LogicExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}

// NotExpr is logical negation.
type NotExpr struct{ Inner Expr }

func (e NotExpr) String() string { return "!" + e.Inner.String() }

// CallExpr is a builtin function call. Supported: REGEX, CONTAINS, STR,
// LANG, BOUND, ISIRI, ISLITERAL, STRSTARTS.
type CallExpr struct {
	Name string // upper-cased
	Args []Expr
}

// callBuiltin dispatches a builtin call over evaluated arguments — BOUND
// excepted, which needs the row itself, and REGEX, whose compiled pattern
// the caller holds.
func callBuiltin(name string, args []rdf.Term) (rdf.Term, error) {
	switch name {
	case "CONTAINS":
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("CONTAINS takes 2 arguments")
		}
		return boolTerm(strings.Contains(args[0].Value, args[1].Value)), nil
	case "STRSTARTS":
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("STRSTARTS takes 2 arguments")
		}
		return boolTerm(strings.HasPrefix(args[0].Value, args[1].Value)), nil
	case "STR":
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("STR takes 1 argument")
		}
		return rdf.NewString(args[0].Value), nil
	case "LANG":
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("LANG takes 1 argument")
		}
		return rdf.NewString(args[0].Lang), nil
	case "ISIRI", "ISURI":
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("%s takes 1 argument", name)
		}
		return boolTerm(args[0].IsIRI()), nil
	case "ISLITERAL":
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("ISLITERAL takes 1 argument")
		}
		return boolTerm(args[0].IsLiteral()), nil
	default:
		return rdf.Term{}, fmt.Errorf("unknown function %s", name)
	}
}

func (e CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}
