package sparql

import (
	"fmt"

	"alex/internal/rdf"
)

// evalExprRow evaluates an expression against a slot row, decoding
// variable slots through the id space only when the expression actually
// reads them.
func (p *slotProg) evalExprRow(e Expr, r []rdf.TermID) (rdf.Term, error) {
	switch e := e.(type) {
	case VarExpr:
		if id := p.get(r, e.Name); id != rdf.NoTerm {
			return p.ids.Term(id), nil
		}
		return rdf.Term{}, fmt.Errorf("unbound variable ?%s", e.Name)
	case ConstExpr:
		return e.Term, nil
	case CmpExpr:
		l, err := p.evalExprRow(e.Left, r)
		if err != nil {
			return rdf.Term{}, err
		}
		rt, err := p.evalExprRow(e.Right, r)
		if err != nil {
			return rdf.Term{}, err
		}
		return cmpTerms(e.Op, l, rt)
	case ArithExpr:
		l, err := p.evalExprRow(e.Left, r)
		if err != nil {
			return rdf.Term{}, err
		}
		rt, err := p.evalExprRow(e.Right, r)
		if err != nil {
			return rdf.Term{}, err
		}
		return arithTerms(e.Op, l, rt)
	case LogicExpr:
		lv, lerr := p.evalBoolRow(e.Left, r)
		rv, rerr := p.evalBoolRow(e.Right, r)
		return logicCombine(e.Op, lv, lerr, rv, rerr)
	case NotExpr:
		v, err := p.evalBoolRow(e.Inner, r)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(!v), nil
	case CallExpr:
		if e.Name == "BOUND" {
			if len(e.Args) != 1 {
				return rdf.Term{}, fmt.Errorf("BOUND takes 1 argument")
			}
			v, ok := e.Args[0].(VarExpr)
			if !ok {
				return rdf.Term{}, fmt.Errorf("BOUND requires a variable")
			}
			return boolTerm(p.get(r, v.Name) != rdf.NoTerm), nil
		}
		// No builtin takes more than three arguments: a longer call is an
		// arity error callBuiltin reports, and the only one that allocates.
		var buf [3]rdf.Term
		args := buf[:0]
		for _, a := range e.Args {
			t, err := p.evalExprRow(a, r)
			if err != nil {
				return rdf.Term{}, err
			}
			args = append(args, t)
		}
		if e.Name == "REGEX" {
			text, k, err := regexArgs(args)
			if err != nil {
				return rdf.Term{}, err
			}
			return p.regex(k).match(text)
		}
		return callBuiltin(e.Name, args)
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown expression type %T", e)
	}
}

func (p *slotProg) evalBoolRow(e Expr, r []rdf.TermID) (bool, error) {
	t, err := p.evalExprRow(e, r)
	if err != nil {
		return false, err
	}
	return EBV(t)
}
