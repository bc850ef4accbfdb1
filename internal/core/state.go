package core

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"strings"

	"alex/internal/feature"
	"alex/internal/linkset"
	"alex/internal/rdf"
)

// This file implements engine state persistence: a long-running linking
// service can checkpoint everything ALEX has learned — the candidate links,
// the blacklist, the value estimates and the policy — and resume after a
// restart. Terms are persisted by IRI, not by dictionary id, so a snapshot
// survives reloading the data sets into a fresh dictionary; entries whose
// IRIs no longer resolve (the data changed) are dropped silently.
//
// Exploration provenance (which state-action generated which link) is NOT
// persisted: it exists to attribute future feedback to recent actions, and
// rebuilding it through new exploration is both cheap and semantically
// safer than attributing new feedback to pre-restart actions.

// wire types: everything keyed by IRI strings.

type wireLink struct{ Left, Right string }

type wireFeature struct{ P1, P2 string }

type wireQ struct {
	S     wireLink
	A     wireFeature
	Sum   float64
	Count int
}

type wireFQ struct {
	A      wireFeature
	Bucket int
	Sum    float64
	Count  int
}

type wireSA struct {
	S wireLink
	A wireFeature
}

type wireGreedy struct {
	S wireLink
	A wireFeature
}

type wireLinkCount struct {
	L wireLink
	N int
}

type partitionState struct {
	Candidates   []wireLink
	Blacklist    []wireLink
	NegByLink    []wireLinkCount
	PosConfirmed []wireLink
	RolledBack   []wireSA
	Q            []wireQ
	FQ           []wireFQ
	Greedy       []wireGreedy
	Episodes     int
	Converged    bool
	Rollbacks    int
}

type engineState struct {
	Version    int
	Episode    int
	Partitions []partitionState
}

// SaveState serializes the engine's learned state to w.
func (e *Engine) SaveState(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	dict := e.ds1.Dict()
	iri := func(id rdf.TermID) string { return dict.Term(id).Value }
	wl := func(l linkset.Link) wireLink { return wireLink{Left: iri(l.Left), Right: iri(l.Right)} }
	wf := func(f feature.Feature) wireFeature { return wireFeature{P1: iri(f.P1), P2: iri(f.P2)} }

	st := engineState{Version: 1, Episode: e.episode}
	for _, p := range e.partitions {
		ps := partitionState{
			Episodes:  p.episodes,
			Converged: p.converged,
			Rollbacks: p.rollbacks,
		}
		// Every wire slice is sorted by IRI here: two snapshots of the same
		// engine state must be byte-identical so checkpoints can be
		// compared, deduplicated and tested against golden files, and ids
		// follow the order links were first seen in, not their IRIs.
		for id, ls := range p.ls {
			l := wl(p.links[id])
			if ls.flags&isCandidate != 0 {
				ps.Candidates = append(ps.Candidates, l)
			}
			if ls.flags&isBlacklisted != 0 {
				ps.Blacklist = append(ps.Blacklist, l)
			}
			if ls.negs > 0 {
				ps.NegByLink = append(ps.NegByLink, wireLinkCount{L: l, N: ls.negs})
			}
			if ls.flags&isConfirmed != 0 {
				ps.PosConfirmed = append(ps.PosConfirmed, l)
			}
		}
		slices.SortFunc(ps.Candidates, cmpWireLink)
		slices.SortFunc(ps.Blacklist, cmpWireLink)
		slices.SortFunc(ps.NegByLink, func(a, b wireLinkCount) int { return cmpWireLink(a.L, b.L) })
		slices.SortFunc(ps.PosConfirmed, cmpWireLink)
		for _, sa := range p.sas {
			if sa.rolledBack {
				ps.RolledBack = append(ps.RolledBack, wireSA{S: wl(p.links[sa.s]), A: wf(sa.a)})
			}
		}
		slices.SortFunc(ps.RolledBack, func(a, b wireSA) int { return cmpWireSA(a.S, a.A, b.S, b.A) })
		p.q.Each(func(id uint32, sum float64, count int) {
			sa := &p.sas[id]
			ps.Q = append(ps.Q, wireQ{S: wl(p.links[sa.s]), A: wf(sa.a), Sum: sum, Count: count})
		})
		slices.SortFunc(ps.Q, func(a, b wireQ) int { return cmpWireSA(a.S, a.A, b.S, b.A) })
		p.fq.Each(func(id uint32, sum float64, count int) {
			k := p.fqByID[id]
			ps.FQ = append(ps.FQ, wireFQ{A: wf(k.f), Bucket: k.bucket, Sum: sum, Count: count})
		})
		slices.SortFunc(ps.FQ, func(a, b wireFQ) int {
			return cmp.Or(cmpWireFeature(a.A, b.A), cmp.Compare(a.Bucket, b.Bucket))
		})
		p.policy.Each(func(s uint32, a feature.Feature) {
			ps.Greedy = append(ps.Greedy, wireGreedy{S: wl(p.links[s]), A: wf(a)})
		})
		slices.SortFunc(ps.Greedy, func(a, b wireGreedy) int { return cmpWireLink(a.S, b.S) })
		st.Partitions = append(st.Partitions, ps)
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("core: saving engine state: %w", err)
	}
	return nil
}

func cmpWireLink(a, b wireLink) int {
	return strings.Compare(a.Left+"\x00"+a.Right, b.Left+"\x00"+b.Right)
}

func cmpWireFeature(a, b wireFeature) int {
	return strings.Compare(a.P1+"\x00"+a.P2, b.P1+"\x00"+b.P2)
}

// cmpWireSA orders state-action pairs by link, then feature.
func cmpWireSA(s1 wireLink, a1 wireFeature, s2 wireLink, a2 wireFeature) int {
	return cmp.Or(cmpWireLink(s1, s2), cmpWireFeature(a1, a2))
}

// LoadState restores state saved by SaveState into an engine built over
// the same (or equivalent) data sets with the same partition count.
// Entries referring to IRIs absent from the current data are skipped.
func (e *Engine) LoadState(r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var st engineState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: loading engine state: %w", err)
	}
	if st.Version != 1 {
		return fmt.Errorf("core: unsupported state version %d", st.Version)
	}
	if len(st.Partitions) != len(e.partitions) {
		return fmt.Errorf("core: state has %d partitions, engine has %d",
			len(st.Partitions), len(e.partitions))
	}
	dict := e.ds1.Dict()
	id := func(iri string) (rdf.TermID, bool) { return dict.Lookup(rdf.NewIRI(iri)) }
	link := func(w wireLink) (linkset.Link, bool) {
		l, ok1 := id(w.Left)
		r, ok2 := id(w.Right)
		return linkset.Link{Left: l, Right: r}, ok1 && ok2
	}
	feat := func(w wireFeature) (feature.Feature, bool) {
		p1, ok1 := id(w.P1)
		p2, ok2 := id(w.P2)
		return feature.Feature{P1: p1, P2: p2}, ok1 && ok2
	}

	e.episode = st.Episode
	for i, ps := range st.Partitions {
		p := e.partitions[i]
		for _, w := range ps.Candidates {
			if l, ok := link(w); ok {
				p.addCandidate(p.intern(l))
			}
		}
		for _, w := range ps.Blacklist {
			if l, ok := link(w); ok {
				id := p.intern(l)
				p.ls[id].flags |= isBlacklisted
				p.removeCandidate(id)
			}
		}
		for _, w := range ps.NegByLink {
			if l, ok := link(w.L); ok {
				p.ls[p.intern(l)].negs = w.N
			}
		}
		for _, w := range ps.PosConfirmed {
			if l, ok := link(w); ok {
				p.ls[p.intern(l)].flags |= isConfirmed
			}
		}
		for _, w := range ps.RolledBack {
			l, ok1 := link(w.S)
			f, ok2 := feat(w.A)
			if ok1 && ok2 {
				p.sas[p.internPair(p.intern(l), f)].rolledBack = true
			}
		}
		for _, w := range ps.Q {
			l, ok1 := link(w.S)
			f, ok2 := feat(w.A)
			if ok1 && ok2 {
				p.q.Load(p.internPair(p.intern(l), f), w.Sum, w.Count)
			}
		}
		for _, w := range ps.FQ {
			if f, ok := feat(w.A); ok {
				p.fq.Load(p.internBand(fqKey{f: f, bucket: w.Bucket}), w.Sum, w.Count)
			}
		}
		for _, w := range ps.Greedy {
			l, ok1 := link(w.S)
			f, ok2 := feat(w.A)
			if ok1 && ok2 {
				p.policy.Improve(p.intern(l), f)
			}
		}
		p.episodes = ps.Episodes
		p.converged = ps.Converged
		p.rollbacks = ps.Rollbacks
	}
	e.foldLocked()
	return nil
}
