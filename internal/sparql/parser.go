package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"alex/internal/rdf"
)

// wellKnownPrefixes are always available without a PREFIX declaration.
var wellKnownPrefixes = map[string]string{
	"rdf":  "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
	"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
	"owl":  "http://www.w3.org/2002/07/owl#",
	"xsd":  "http://www.w3.org/2001/XMLSchema#",
}

// Parse parses a SELECT query.
func Parse(query string) (*Query, error) {
	p := &parser{lex: lexer{in: query}, prefixes: map[string]string{}}
	for k, v := range wellKnownPrefixes {
		p.prefixes[k] = v
	}
	p.advance()
	q, err := p.query()
	switch {
	case p.lex.err != nil:
		// The parser saw only end of input after a lexer error, so
		// whatever it made of that, the lexer's error comes first.
		return nil, p.lex.err
	case err != nil:
		return nil, err
	case p.tok.kind != tokEOF:
		return nil, p.errf("unexpected %s after query", p.tok)
	}
	return q, nil
}

type parser struct {
	lex      lexer
	tok      token
	prefixes map[string]string
}

// advance moves to the next token. A lexer error reads as end of input
// here; Parse reports it.
func (p *parser) advance() { p.tok = p.lex.next() }

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

// keyword reports whether the current token is the (case-insensitive) ident.
func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, got %s", kw, p.tok)
	}
	p.advance()
	return nil
}

func (p *parser) expect(kind tokenKind, what string) error {
	if p.tok.kind != kind {
		return p.errf("expected %s, got %s", what, p.tok)
	}
	p.advance()
	return nil
}

func (p *parser) query() (*Query, error) {
	for p.keyword("PREFIX") {
		p.advance()
		if p.tok.kind != tokPName {
			return nil, p.errf("expected prefix name, got %s", p.tok)
		}
		name := strings.TrimSuffix(p.tok.text, ":")
		if i := strings.IndexByte(p.tok.text, ':'); i >= 0 {
			name = p.tok.text[:i]
		}
		p.advance()
		if p.tok.kind != tokIRI {
			return nil, p.errf("expected IRI in PREFIX, got %s", p.tok)
		}
		p.prefixes[name] = p.tok.text
		p.advance()
	}
	q := &Query{Limit: -1}
	switch {
	case p.keyword("CONSTRUCT"):
		p.advance()
		tmpl, err := p.constructTemplate()
		if err != nil {
			return nil, err
		}
		q.Construct = tmpl
		if err := p.expectKeyword("WHERE"); err != nil {
			return nil, err
		}
	case p.keyword("ASK"):
		q.Ask = true
		p.advance()
		// WHERE is optional before the group in ASK.
		if p.keyword("WHERE") {
			p.advance()
		}
	case p.keyword("SELECT"):
		p.advance()
		if p.keyword("DISTINCT") {
			q.Distinct = true
			p.advance()
		}
		switch {
		case p.tok.kind == tokStar:
			p.advance()
		case p.tok.kind == tokVar || p.tok.kind == tokLParen:
			for {
				if p.tok.kind == tokVar {
					q.Vars = append(q.Vars, p.tok.text)
					p.advance()
					continue
				}
				if p.tok.kind == tokLParen {
					agg, err := p.aggregateItem()
					if err != nil {
						return nil, err
					}
					q.Aggregates = append(q.Aggregates, agg)
					continue
				}
				break
			}
		default:
			return nil, p.errf("expected projection variables or *, got %s", p.tok)
		}
		if err := p.expectKeyword("WHERE"); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected SELECT or ASK, got %s", p.tok)
	}
	patterns, err := p.groupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Patterns = patterns

	// Solution modifiers.
	if p.keyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for p.tok.kind == tokVar {
			q.GroupBy = append(q.GroupBy, p.tok.text)
			p.advance()
		}
		if len(q.GroupBy) == 0 {
			return nil, p.errf("empty GROUP BY")
		}
	}
	if len(q.GroupBy) > 0 && len(q.Aggregates) == 0 {
		return nil, p.errf("GROUP BY requires aggregate projection items")
	}
	if len(q.Aggregates) > 0 {
		// Every plain projected variable must be a grouping key.
		grouped := map[string]bool{}
		for _, g := range q.GroupBy {
			grouped[g] = true
		}
		for _, v := range q.Vars {
			if !grouped[v] {
				return nil, p.errf("variable ?%s projected alongside aggregates must appear in GROUP BY", v)
			}
		}
	}
	if p.keyword("ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			key := OrderKey{}
			switch {
			case p.keyword("ASC") || p.keyword("DESC"):
				key.Desc = strings.EqualFold(p.tok.text, "DESC")
				p.advance()
				if err := p.expect(tokLParen, "("); err != nil {
					return nil, err
				}
				if p.tok.kind != tokVar {
					return nil, p.errf("expected variable in ORDER BY, got %s", p.tok)
				}
				key.Var = p.tok.text
				p.advance()
				if err := p.expect(tokRParen, ")"); err != nil {
					return nil, err
				}
			case p.tok.kind == tokVar:
				key.Var = p.tok.text
				p.advance()
			default:
				return nil, p.errf("expected ORDER BY key, got %s", p.tok)
			}
			q.OrderBy = append(q.OrderBy, key)
			if p.tok.kind != tokVar && !p.keyword("ASC") && !p.keyword("DESC") {
				break
			}
		}
	}
	for p.keyword("LIMIT") || p.keyword("OFFSET") {
		isLimit := p.keyword("LIMIT")
		p.advance()
		if p.tok.kind != tokNumber {
			return nil, p.errf("expected number, got %s", p.tok)
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid count %q", p.tok.text)
		}
		if isLimit {
			q.Limit = n
		} else {
			q.Offset = n
		}
		p.advance()
	}
	return q, nil
}

// groupGraphPattern parses { ... }.
func (p *parser) groupGraphPattern() ([]Pattern, error) {
	if err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	var out []Pattern
	var bgp BGP
	flushBGP := func() {
		if len(bgp.Triples) > 0 {
			out = append(out, bgp)
			bgp = BGP{}
		}
	}
	for {
		switch {
		case p.tok.kind == tokRBrace:
			flushBGP()
			p.advance()
			return out, nil
		case p.keyword("FILTER"):
			p.advance()
			// FILTER [NOT] EXISTS { ... } is a group constraint, not an
			// expression.
			if p.keyword("EXISTS") || p.keyword("NOT") {
				not := p.keyword("NOT")
				if not {
					p.advance()
				}
				if err := p.expectKeyword("EXISTS"); err != nil {
					return nil, err
				}
				inner, err := p.groupGraphPattern()
				if err != nil {
					return nil, err
				}
				flushBGP()
				out = append(out, Exists{Not: not, Patterns: inner})
				continue
			}
			expr, err := p.expression()
			if err != nil {
				return nil, err
			}
			flushBGP()
			out = append(out, Filter{Expr: expr})
		case p.keyword("BIND"):
			p.advance()
			if err := p.expect(tokLParen, "("); err != nil {
				return nil, err
			}
			expr, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if p.tok.kind != tokVar {
				return nil, p.errf("expected variable after AS, got %s", p.tok)
			}
			name := p.tok.text
			p.advance()
			if err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			flushBGP()
			out = append(out, Bind{Expr: expr, As: name})
		case p.keyword("VALUES"):
			p.advance()
			v, err := p.valuesBlock()
			if err != nil {
				return nil, err
			}
			flushBGP()
			out = append(out, v)
		case p.keyword("OPTIONAL"):
			p.advance()
			inner, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			flushBGP()
			out = append(out, Optional{Patterns: inner})
		case p.tok.kind == tokLBrace:
			// { A } UNION { B }
			left, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("UNION"); err != nil {
				return nil, err
			}
			right, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			flushBGP()
			out = append(out, Union{Left: left, Right: right})
		case p.tok.kind == tokEOF:
			return nil, p.errf("unexpected end of query inside group")
		default:
			tps, paths, err := p.triplesSameSubject()
			if err != nil {
				return nil, err
			}
			bgp.Triples = append(bgp.Triples, tps...)
			if len(paths) > 0 {
				flushBGP()
				for _, pp := range paths {
					out = append(out, pp)
				}
			}
			// Optional dot between triples.
			if p.tok.kind == tokDot {
				p.advance()
			}
		}
	}
}

// triplesSameSubject parses "subject predObjList" with ';' and ',' support.
// Predicates may be property paths; those yield PathPatterns.
func (p *parser) triplesSameSubject() ([]TriplePattern, []PathPattern, error) {
	subj, err := p.node()
	if err != nil {
		return nil, nil, err
	}
	var out []TriplePattern
	var paths []PathPattern
	for {
		pred, path, err := p.predicateOrPath()
		if err != nil {
			return nil, nil, err
		}
		for {
			obj, err := p.node()
			if err != nil {
				return nil, nil, err
			}
			if path != nil {
				paths = append(paths, PathPattern{S: subj, P: path, O: obj})
			} else {
				out = append(out, TriplePattern{S: subj, P: pred, O: obj})
			}
			if p.tok.kind == tokComma {
				p.advance()
				continue
			}
			break
		}
		if p.tok.kind == tokSemi {
			p.advance()
			// Allow trailing ';' before '.' or '}'.
			if p.tok.kind == tokDot || p.tok.kind == tokRBrace {
				break
			}
			continue
		}
		break
	}
	return out, paths, nil
}

// predicateOrPath parses the predicate position: a variable, a plain IRI
// (possibly written 'a'), or a property path. A non-trivial path returns
// (zero Node, Path); otherwise (Node, nil).
func (p *parser) predicateOrPath() (Node, Path, error) {
	if p.tok.kind == tokVar {
		v := p.tok.text
		p.advance()
		return VarNode(v), nil, nil
	}
	path, err := p.pathAlt()
	if err != nil {
		return Node{}, nil, err
	}
	// A path that is just one forward IRI step degrades to a plain node,
	// keeping the simple join machinery (and the federated executor) on
	// the fast path.
	if iri, ok := path.(PathIRI); ok {
		return TermNode(iri.IRI), nil, nil
	}
	return Node{}, path, nil
}

// pathAlt := pathSeq ('|' pathSeq)*
func (p *parser) pathAlt() (Path, error) {
	first, err := p.pathSeq()
	if err != nil {
		return nil, err
	}
	alts := []Path{first}
	for p.tok.kind == tokOp && p.tok.text == "|" {
		p.advance()
		next, err := p.pathSeq()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	if len(alts) == 1 {
		return first, nil
	}
	return PathAlt{Alts: alts}, nil
}

// pathSeq := pathElt ('/' pathElt)*
func (p *parser) pathSeq() (Path, error) {
	first, err := p.pathElt()
	if err != nil {
		return nil, err
	}
	parts := []Path{first}
	for p.tok.kind == tokOp && p.tok.text == "/" {
		p.advance()
		next, err := p.pathElt()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return first, nil
	}
	return PathSeq{Parts: parts}, nil
}

// pathElt := ['^'] pathPrimary ['?' | '+' | '*']
func (p *parser) pathElt() (Path, error) {
	inverse := false
	if p.tok.kind == tokOp && p.tok.text == "^" {
		inverse = true
		p.advance()
	}
	var base Path
	switch {
	case p.tok.kind == tokIRI:
		base = PathIRI{IRI: rdf.NewIRI(p.tok.text)}
		p.advance()
	case p.tok.kind == tokPName:
		t, err := p.expandPName(p.tok.text)
		if err != nil {
			return nil, err
		}
		base = PathIRI{IRI: t}
		p.advance()
	case p.tok.kind == tokA:
		base = PathIRI{IRI: rdf.NewIRI(rdf.RDFType)}
		p.advance()
	case p.tok.kind == tokLParen:
		p.advance()
		inner, err := p.pathAlt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		base = inner
	default:
		return nil, p.errf("expected predicate or path, got %s", p.tok)
	}
	if inverse {
		base = PathInverse{P: base}
	}
	if p.tok.kind == tokOp || p.tok.kind == tokStar {
		mod := byte(0)
		switch {
		case p.tok.kind == tokStar:
			mod = '*'
		case p.tok.text == "+":
			mod = '+'
		case p.tok.text == "?":
			mod = '?'
		}
		if mod != 0 {
			p.advance()
			base = PathMod{P: base, Mod: mod}
		}
	}
	return base, nil
}

// constructTemplate parses the { tp ... } template of a CONSTRUCT query:
// plain triple patterns only (no filters, groups or paths).
func (p *parser) constructTemplate() ([]TriplePattern, error) {
	if err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	var out []TriplePattern
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, p.errf("unexpected end of query in CONSTRUCT template")
		}
		tps, paths, err := p.triplesSameSubject()
		if err != nil {
			return nil, err
		}
		if len(paths) > 0 {
			return nil, p.errf("property paths are not allowed in a CONSTRUCT template")
		}
		out = append(out, tps...)
		if p.tok.kind == tokDot {
			p.advance()
		}
	}
	p.advance() // '}'
	if len(out) == 0 {
		return nil, p.errf("empty CONSTRUCT template")
	}
	return out, nil
}

// aggregateItem parses "(FUNC([DISTINCT] ?v | *) AS ?alias)".
func (p *parser) aggregateItem() (Aggregate, error) {
	var agg Aggregate
	if err := p.expect(tokLParen, "("); err != nil {
		return agg, err
	}
	if p.tok.kind != tokIdent {
		return agg, p.errf("expected aggregate function, got %s", p.tok)
	}
	agg.Func = strings.ToUpper(p.tok.text)
	switch agg.Func {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
	default:
		return agg, p.errf("unknown aggregate %s", agg.Func)
	}
	p.advance()
	if err := p.expect(tokLParen, "("); err != nil {
		return agg, err
	}
	if p.keyword("DISTINCT") {
		agg.Distinct = true
		p.advance()
	}
	switch p.tok.kind {
	case tokStar:
		if agg.Func != "COUNT" {
			return agg, p.errf("%s(*) is not supported", agg.Func)
		}
		p.advance()
	case tokVar:
		agg.Var = p.tok.text
		p.advance()
	default:
		return agg, p.errf("expected variable or * in aggregate, got %s", p.tok)
	}
	if err := p.expect(tokRParen, ")"); err != nil {
		return agg, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return agg, err
	}
	if p.tok.kind != tokVar {
		return agg, p.errf("expected alias variable after AS, got %s", p.tok)
	}
	agg.As = p.tok.text
	p.advance()
	return agg, p.expect(tokRParen, ")")
}

// valuesBlock parses the single-variable form "VALUES ?x { t1 t2 ... }"
// and the row form "VALUES (?x ?y) { (t1 t2) (t3 t4) ... }". The keyword
// UNDEF leaves a position unbound.
func (p *parser) valuesBlock() (Values, error) {
	var v Values
	switch p.tok.kind {
	case tokVar:
		v.Vars = []string{p.tok.text}
		p.advance()
		if err := p.expect(tokLBrace, "{"); err != nil {
			return v, err
		}
		for p.tok.kind != tokRBrace {
			t, err := p.valuesTerm()
			if err != nil {
				return v, err
			}
			v.Rows = append(v.Rows, []rdf.Term{t})
		}
	case tokLParen:
		p.advance()
		for p.tok.kind == tokVar {
			v.Vars = append(v.Vars, p.tok.text)
			p.advance()
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return v, err
		}
		if len(v.Vars) == 0 {
			return v, p.errf("empty VALUES variable list")
		}
		if err := p.expect(tokLBrace, "{"); err != nil {
			return v, err
		}
		for p.tok.kind != tokRBrace {
			if err := p.expect(tokLParen, "("); err != nil {
				return v, err
			}
			row := make([]rdf.Term, 0, len(v.Vars))
			for p.tok.kind != tokRParen {
				t, err := p.valuesTerm()
				if err != nil {
					return v, err
				}
				row = append(row, t)
			}
			p.advance() // ')'
			if len(row) != len(v.Vars) {
				return v, p.errf("VALUES row has %d terms, want %d", len(row), len(v.Vars))
			}
			v.Rows = append(v.Rows, row)
		}
	default:
		return v, p.errf("expected variable or ( after VALUES, got %s", p.tok)
	}
	p.advance() // '}'
	return v, nil
}

// valuesTerm parses one term of a VALUES block; UNDEF yields a zero Term.
func (p *parser) valuesTerm() (rdf.Term, error) {
	if p.keyword("UNDEF") {
		p.advance()
		return rdf.Term{}, nil
	}
	n, err := p.node()
	if err != nil {
		return rdf.Term{}, err
	}
	if n.IsVar() {
		return rdf.Term{}, p.errf("variables are not allowed inside VALUES data")
	}
	return n.Term, nil
}

// node parses a variable, IRI, prefixed name, or literal.
func (p *parser) node() (Node, error) {
	var n Node
	switch p.tok.kind {
	case tokVar:
		n = VarNode(p.tok.text)
	case tokIRI:
		n = TermNode(rdf.NewIRI(p.tok.text))
	case tokPName:
		t, err := p.expandPName(p.tok.text)
		if err != nil {
			return Node{}, err
		}
		n = TermNode(t)
	case tokString:
		lex := p.tok.text
		p.advance()
		switch p.tok.kind {
		case tokLangTag:
			n = TermNode(rdf.NewLangString(lex, p.tok.text))
		case tokDTSep:
			p.advance()
			switch p.tok.kind {
			case tokIRI:
				n = TermNode(rdf.NewTyped(lex, p.tok.text))
			case tokPName:
				t, err := p.expandPName(p.tok.text)
				if err != nil {
					return Node{}, err
				}
				n = TermNode(rdf.NewTyped(lex, t.Value))
			default:
				return Node{}, p.errf("expected datatype IRI, got %s", p.tok)
			}
		default:
			return TermNode(rdf.NewString(lex)), nil
		}
	case tokNumber:
		dt := rdf.XSDInteger
		if strings.Contains(p.tok.text, ".") {
			dt = rdf.XSDDouble
		}
		n = TermNode(rdf.NewTyped(p.tok.text, dt))
	default:
		return Node{}, p.errf("expected term or variable, got %s", p.tok)
	}
	p.advance()
	return n, nil
}

func (p *parser) expandPName(pname string) (rdf.Term, error) {
	i := strings.IndexByte(pname, ':')
	if i < 0 {
		return rdf.Term{}, p.errf("malformed prefixed name %q", pname)
	}
	prefix, local := pname[:i], pname[i+1:]
	base, ok := p.prefixes[prefix]
	if !ok {
		return rdf.Term{}, p.errf("undeclared prefix %q", prefix)
	}
	return rdf.NewIRI(base + local), nil
}

// expression parses a FILTER expression with precedence: || < && < ! < cmp.
func (p *parser) expression() (Expr, error) {
	return p.orExpr()
}

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "||" {
		p.advance()
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = LogicExpr{Op: "||", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&&" {
		p.advance()
		right, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		left = LogicExpr{Op: "&&", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	left, err := p.additiveExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp {
		switch p.tok.text {
		case "=", "!=", "<", ">", "<=", ">=":
			op := p.tok.text
			p.advance()
			right, err := p.additiveExpr()
			if err != nil {
				return nil, err
			}
			return CmpExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

// additiveExpr := multExpr (('+' | '-') multExpr)*
func (p *parser) additiveExpr() (Expr, error) {
	left, err := p.multExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text[0]
		p.advance()
		right, err := p.multExpr()
		if err != nil {
			return nil, err
		}
		left = ArithExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

// multExpr := unaryExpr (('*' | '/') unaryExpr)*
func (p *parser) multExpr() (Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for (p.tok.kind == tokOp && p.tok.text == "/") || p.tok.kind == tokStar {
		op := byte('/')
		if p.tok.kind == tokStar {
			op = '*'
		}
		p.advance()
		right, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		left = ArithExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.tok.kind == tokOp && p.tok.text == "!" {
		p.advance()
		inner, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return NotExpr{Inner: inner}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (Expr, error) {
	switch p.tok.kind {
	case tokLParen:
		p.advance()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case tokVar:
		name := p.tok.text
		p.advance()
		return VarExpr{Name: name}, nil
	case tokIdent:
		// Builtin function call.
		name := strings.ToUpper(p.tok.text)
		p.advance()
		if err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		var args []Expr
		if p.tok.kind != tokRParen {
			for {
				a, err := p.expression()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.tok.kind == tokComma {
					p.advance()
					continue
				}
				break
			}
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return CallExpr{Name: name, Args: args}, nil
	case tokIRI:
		iri := p.tok.text
		p.advance()
		return ConstExpr{Term: rdf.NewIRI(iri)}, nil
	case tokPName:
		t, err := p.expandPName(p.tok.text)
		if err != nil {
			return nil, err
		}
		p.advance()
		return ConstExpr{Term: t}, nil
	case tokString:
		n, err := p.node()
		if err != nil {
			return nil, err
		}
		return ConstExpr{Term: n.Term}, nil
	case tokNumber:
		n, err := p.node()
		if err != nil {
			return nil, err
		}
		return ConstExpr{Term: n.Term}, nil
	default:
		return nil, p.errf("expected expression, got %s", p.tok)
	}
}
