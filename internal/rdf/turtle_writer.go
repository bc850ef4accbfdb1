package rdf

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// TurtleWriter serializes triples in readable Turtle: @prefix declarations
// for the namespaces it was given, statements grouped by subject with ';'
// predicate lists and ',' object lists, and shorthand forms for numeric and
// boolean literals.
//
// Unlike the streaming N-Triples Writer, the TurtleWriter buffers all
// triples until Flush so it can group by subject.
type TurtleWriter struct {
	w        *bufio.Writer
	prefixes []prefixDecl // longest-first for greedy matching
	triples  []Triple
}

type prefixDecl struct {
	name, base string
}

// NewTurtleWriter returns a writer over w. prefixes maps prefix names to
// namespace IRIs (e.g. "dbo" → "http://dbpedia.org/ontology/"); IRIs under
// a declared namespace are written as prefixed names.
func NewTurtleWriter(w io.Writer, prefixes map[string]string) *TurtleWriter {
	tw := &TurtleWriter{w: bufio.NewWriter(w)}
	for name, base := range prefixes {
		tw.prefixes = append(tw.prefixes, prefixDecl{name: name, base: base})
	}
	sort.Slice(tw.prefixes, func(i, j int) bool {
		if len(tw.prefixes[i].base) != len(tw.prefixes[j].base) {
			return len(tw.prefixes[i].base) > len(tw.prefixes[j].base)
		}
		return tw.prefixes[i].name < tw.prefixes[j].name
	})
	return tw
}

// Write buffers one triple.
func (tw *TurtleWriter) Write(t Triple) { tw.triples = append(tw.triples, t) }

// WriteAll buffers triples and flushes.
func (tw *TurtleWriter) WriteAll(ts []Triple) error {
	tw.triples = append(tw.triples, ts...)
	return tw.Flush()
}

// Flush renders all buffered triples and writes them out.
func (tw *TurtleWriter) Flush() error {
	decls := append([]prefixDecl{}, tw.prefixes...)
	sort.Slice(decls, func(i, j int) bool { return decls[i].name < decls[j].name })
	for _, d := range decls {
		if _, err := tw.w.WriteString("@prefix " + d.name + ": <" + d.base + "> .\n"); err != nil {
			return err
		}
	}
	if len(decls) > 0 {
		if err := tw.w.WriteByte('\n'); err != nil {
			return err
		}
	}
	// Group by subject, preserving first-appearance order.
	bySubject := map[Term][]Triple{}
	var order []Term
	for _, t := range tw.triples {
		if _, seen := bySubject[t.S]; !seen {
			order = append(order, t.S)
		}
		bySubject[t.S] = append(bySubject[t.S], t)
	}
	for _, subj := range order {
		group := bySubject[subj]
		// Sub-group by predicate, preserving order.
		byPred := map[Term][]Term{}
		var predOrder []Term
		for _, t := range group {
			if _, seen := byPred[t.P]; !seen {
				predOrder = append(predOrder, t.P)
			}
			byPred[t.P] = append(byPred[t.P], t.O)
		}
		if _, err := tw.w.WriteString(tw.renderTerm(subj)); err != nil {
			return err
		}
		for pi, pred := range predOrder {
			sep := " "
			if pi > 0 {
				sep = " ;\n    "
			}
			if _, err := tw.w.WriteString(sep + tw.renderPredicate(pred)); err != nil {
				return err
			}
			for oi, obj := range byPred[pred] {
				s := " "
				if oi > 0 {
					s = ", "
				}
				if _, err := tw.w.WriteString(s + tw.renderTerm(obj)); err != nil {
					return err
				}
			}
		}
		if _, err := tw.w.WriteString(" .\n"); err != nil {
			return err
		}
	}
	tw.triples = nil
	return tw.w.Flush()
}

func (tw *TurtleWriter) renderPredicate(t Term) string {
	if t.Kind == KindIRI && t.Value == RDFType {
		return "a"
	}
	return tw.renderTerm(t)
}

// renderTerm writes an IRI under a declared namespace as a prefixed name
// when the reader's ScanPrefixedName reads that name back whole, integers
// and booleans in their shorthand, and every other term as Term.String.
func (tw *TurtleWriter) renderTerm(t Term) string {
	switch t.Kind {
	case KindIRI:
		for _, d := range tw.prefixes {
			if strings.HasPrefix(t.Value, d.base) {
				name := d.name + ":" + t.Value[len(d.base):]
				if colon, end := ScanPrefixedName(name, 0); colon == len(d.name) && end == len(name) {
					return name
				}
			}
		}
	case KindLiteral:
		switch t.Datatype {
		case XSDInteger:
			if _, err := strconv.ParseInt(t.Value, 10, 64); err == nil {
				return t.Value
			}
		case XSDBoolean:
			if t.Value == "true" || t.Value == "false" {
				return t.Value
			}
		}
	}
	return t.String()
}
