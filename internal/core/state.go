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
	"alex/internal/rl"
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
		// Every wire slice is filled from a map and sorted here: two
		// snapshots of the same engine state must be byte-identical so
		// checkpoints can be compared, deduplicated and tested against
		// golden files.
		for l := range p.candidates {
			ps.Candidates = append(ps.Candidates, wl(l))
		}
		slices.SortFunc(ps.Candidates, cmpWireLink)
		for l := range p.blacklist {
			ps.Blacklist = append(ps.Blacklist, wl(l))
		}
		slices.SortFunc(ps.Blacklist, cmpWireLink)
		for l, n := range p.negByLink {
			ps.NegByLink = append(ps.NegByLink, wireLinkCount{L: wl(l), N: n})
		}
		slices.SortFunc(ps.NegByLink, func(a, b wireLinkCount) int { return cmpWireLink(a.L, b.L) })
		for l := range p.posConfirmed {
			ps.PosConfirmed = append(ps.PosConfirmed, wl(l))
		}
		slices.SortFunc(ps.PosConfirmed, cmpWireLink)
		for sa := range p.rolledBack {
			ps.RolledBack = append(ps.RolledBack, wireSA{S: wl(sa.s), A: wf(sa.a)})
		}
		slices.SortFunc(ps.RolledBack, func(a, b wireSA) int { return cmpWireSA(a.S, a.A, b.S, b.A) })
		for _, qe := range p.q.Entries() {
			ps.Q = append(ps.Q, wireQ{S: wl(qe.State), A: wf(qe.Action), Sum: qe.Sum, Count: qe.Count})
		}
		slices.SortFunc(ps.Q, func(a, b wireQ) int { return cmpWireSA(a.S, a.A, b.S, b.A) })
		for _, fe := range p.fq.Entries() {
			ps.FQ = append(ps.FQ, wireFQ{A: wf(fe.Action.f), Bucket: fe.Action.bucket, Sum: fe.Sum, Count: fe.Count})
		}
		slices.SortFunc(ps.FQ, func(a, b wireFQ) int {
			return cmp.Or(cmpWireFeature(a.A, b.A), cmp.Compare(a.Bucket, b.Bucket))
		})
		for s, a := range p.policy.GreedyEntries() {
			ps.Greedy = append(ps.Greedy, wireGreedy{S: wl(s), A: wf(a)})
		}
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
				p.addCandidate(l)
			}
		}
		for _, w := range ps.Blacklist {
			if l, ok := link(w); ok {
				p.blacklist[l] = struct{}{}
				p.removeCandidate(l)
			}
		}
		for _, w := range ps.NegByLink {
			if l, ok := link(w.L); ok {
				p.negByLink[l] = w.N
			}
		}
		for _, w := range ps.PosConfirmed {
			if l, ok := link(w); ok {
				p.posConfirmed[l] = struct{}{}
			}
		}
		for _, w := range ps.RolledBack {
			l, ok1 := link(w.S)
			f, ok2 := feat(w.A)
			if ok1 && ok2 {
				p.rolledBack[stateAction{s: l, a: f}] = struct{}{}
			}
		}
		for _, w := range ps.Q {
			l, ok1 := link(w.S)
			f, ok2 := feat(w.A)
			if ok1 && ok2 {
				p.q.Load(rl.QEntry[linkset.Link, feature.Feature]{
					State: l, Action: f, Sum: w.Sum, Count: w.Count,
				})
			}
		}
		for _, w := range ps.FQ {
			if f, ok := feat(w.A); ok {
				p.fq.Load(rl.QEntry[struct{}, fqKey]{
					Action: fqKey{f: f, bucket: w.Bucket}, Sum: w.Sum, Count: w.Count,
				})
			}
		}
		for _, w := range ps.Greedy {
			l, ok1 := link(w.S)
			f, ok2 := feat(w.A)
			if ok1 && ok2 {
				p.policy.Improve(l, f)
			}
		}
		p.episodes = ps.Episodes
		p.converged = ps.Converged
		p.rollbacks = ps.Rollbacks
	}
	e.foldLocked()
	return nil
}
