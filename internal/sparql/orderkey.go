package sparql

import (
	"context"
	"sort"
	"strings"

	"alex/internal/rdf"
)

// sortKey is a term decided once for ordering. ORDER BY and MIN/MAX build
// one key per value up front — decode the id, test for a number, parse it
// if it is one — so that a comparison is a float compare or a string
// compare and never a parse. The zero key is an unbound value.
//
// compare is compareTerms over keys: numeric when both sides are numbers,
// otherwise by kind, then by lexical value (a number meeting a string
// compares by its own lexical form, which is why a numeric key keeps val).
// That order is not a strict weak order on a column mixing the two, so the
// sort below stays sort.SliceStable: the same algorithm asking the same
// questions and getting the same answers gives the same permutation.
type sortKey struct {
	bound   bool
	numeric bool
	kind    rdf.TermKind
	num     float64
	val     string
}

func newSortKey(t rdf.Term) sortKey {
	k := sortKey{bound: true, kind: t.Kind, val: t.Value}
	k.num, k.numeric = numericValue(t)
	return k
}

func (a *sortKey) compare(b *sortKey) int {
	if a.numeric && b.numeric {
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	return strings.Compare(a.val, b.val)
}

// sortSlots applies ORDER BY: unbound first, numeric when both sides are
// numeric, stable. Each row's key terms are decoded once, into one flat
// array of sort keys, and the sort permutes row indexes over it. Building
// the keys looks at ctx every cancelStride rows, so that a request that
// ends mid-sort stops there with ctx's error.
func (p *slotProg) sortSlots(ctx context.Context, rows *Rows, order []OrderKey, slotOf func(string) int) (*Rows, error) {
	w := len(order)
	keys := make([]sortKey, rows.n*w)
	for ki, k := range order {
		c := slotOf(k.Var)
		if c < 0 {
			continue
		}
		for i := 0; i < rows.n; i++ {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if id := rows.Row(i)[c]; id != rdf.NoTerm {
				keys[i*w+ki] = newSortKey(p.ids.Term(id))
			}
		}
	}
	perm := make([]int, rows.n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		kx, ky := keys[perm[x]*w:], keys[perm[y]*w:]
		for ki, k := range order {
			a, b := &kx[ki], &ky[ki]
			if !a.bound && !b.bound {
				continue
			}
			// Unbound sorts first, so last under DESC.
			if !a.bound || !b.bound {
				return a.bound == k.Desc
			}
			c := a.compare(b)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := NewRows(rows.w, rows.n)
	for _, i := range perm {
		out.Push(rows.Row(i))
	}
	return out, nil
}
