package sparql

import (
	"fmt"
	"regexp"

	"alex/internal/rdf"
)

// REGEX(text, pattern [, flags]) compiles a pattern once per distinct
// (pattern, flags) value, never per row: Compile compiles the calls
// whose pattern and flags are constants, so a Prepared carries them into
// every evaluation, and an evaluation memoises the values a variable
// pattern takes. The compile error is kept like the program is, so an
// invalid pattern is an evaluation error on every row it meets — the
// filter rejects the row, the query does not fail.

// regexKey is what a compiled pattern depends on.
type regexKey struct{ pattern, flags string }

// regexProg is a compiled REGEX pattern, or the error compiling it gave.
// A *regexp.Regexp is safe for concurrent use, so evaluations share one.
type regexProg struct {
	re  *regexp.Regexp
	err error
}

// regexArgs splits the evaluated arguments of a REGEX call.
func regexArgs(args []rdf.Term) (text string, k regexKey, err error) {
	switch len(args) {
	case 2:
		return args[0].Value, regexKey{pattern: args[1].Value}, nil
	case 3:
		return args[0].Value, regexKey{pattern: args[1].Value, flags: args[2].Value}, nil
	default:
		return "", regexKey{}, fmt.Errorf("REGEX takes 2 or 3 arguments")
	}
}

// compileRegex translates the SPARQL flags i (case-insensitive), s (dot
// matches newline) and m (multi-line anchors) to Go's inline flags of the
// same letters; any other flag is an error rather than silently ignored.
func compileRegex(k regexKey) regexProg {
	pattern := k.pattern
	if k.flags != "" {
		for _, f := range k.flags {
			if f != 'i' && f != 's' && f != 'm' {
				return regexProg{err: fmt.Errorf("REGEX: unsupported flag %q", f)}
			}
		}
		pattern = "(?" + k.flags + ")" + pattern
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return regexProg{err: fmt.Errorf("REGEX: %w", err)}
	}
	return regexProg{re: re}
}

func (rp regexProg) match(text string) (rdf.Term, error) {
	if rp.err != nil {
		return rdf.Term{}, rp.err
	}
	return boolTerm(rp.re.MatchString(text)), nil
}

// compileRegexes compiles every REGEX call under e whose pattern and
// flags are constants into the layout.
func (lay *SlotLayout) compileRegexes(e Expr) {
	switch e := e.(type) {
	case CmpExpr:
		lay.compileRegexes(e.Left)
		lay.compileRegexes(e.Right)
	case ArithExpr:
		lay.compileRegexes(e.Left)
		lay.compileRegexes(e.Right)
	case LogicExpr:
		lay.compileRegexes(e.Left)
		lay.compileRegexes(e.Right)
	case NotExpr:
		lay.compileRegexes(e.Inner)
	case CallExpr:
		for _, a := range e.Args {
			lay.compileRegexes(a)
		}
		if e.Name != "REGEX" || len(e.Args) < 2 || len(e.Args) > 3 {
			return
		}
		var k regexKey
		pattern, ok := e.Args[1].(ConstExpr)
		if !ok {
			return
		}
		k.pattern = pattern.Term.Value
		if len(e.Args) == 3 {
			flags, ok := e.Args[2].(ConstExpr)
			if !ok {
				return
			}
			k.flags = flags.Term.Value
		}
		if _, done := lay.regex[k]; !done {
			if lay.regex == nil {
				lay.regex = map[regexKey]regexProg{}
			}
			lay.regex[k] = compileRegex(k)
		}
	}
}

// regex returns the compiled form of k: from the layout when the query
// text fixed it, else from this evaluation's memo, compiling on first use.
func (p *slotProg) regex(k regexKey) regexProg {
	if rp, ok := p.lay.regex[k]; ok {
		return rp
	}
	rp, ok := p.regexMemo[k]
	if !ok {
		rp = compileRegex(k)
		if p.regexMemo == nil {
			p.regexMemo = map[regexKey]regexProg{}
		}
		p.regexMemo[k] = rp
	}
	return rp
}
