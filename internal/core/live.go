package core

import (
	"alex/internal/par"
	"alex/internal/rdf"
)

// Live maintenance: the engine's feature spaces follow store growth
// through the incremental delta path (internal/feature delta.go)
// instead of re-running feature.Build. UpsertSubjects and
// ApplyObjectDeltas are the explicit entry points for callers that know
// exactly what changed; SyncStores is the generation-driven catch-up
// that spots new subjects on either side. In-place modification of an
// entity the engine already knows is invisible to SyncStores (the
// generation moves but the subject list does not) — callers performing
// such edits must report them explicitly.

// UpsertSubjects routes ds1 subjects into the live feature spaces. A
// subject the engine already owns is rescored in its partition; a new
// subject is assigned by continuing the round-robin rule new subjects
// have always followed (partition = assigned mod |partitions|), so a
// grown subject set maps identically at any worker count and any
// arrival batching. Subjects are processed in argument order.
func (e *Engine) UpsertSubjects(subjects ...rdf.TermID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.upsertSubjectsLocked(subjects)
}

func (e *Engine) upsertSubjectsLocked(subjects []rdf.TermID) {
	if len(subjects) == 0 {
		return
	}
	perPartition := make([][]rdf.TermID, len(e.partitions))
	for _, s := range subjects {
		pi, ok := e.subjectPartition[s]
		if !ok {
			pi = e.assigned % len(e.partitions)
			e.assigned++
			e.subjectPartition[s] = pi
		}
		perPartition[pi] = append(perPartition[pi], s)
	}
	par.Do(len(e.partitions), e.cfg.Workers, func(_, i int) {
		p := e.partitions[i]
		for _, s := range perPartition[i] {
			p.space.UpsertSubject(e.ds1, s)
		}
		p.grow()
	})
	e.lastGen1 = e.ds1.Generation()
}

// ApplyObjectDeltas rescores every pair a DS2-side change can touch:
// changed lists the ds2 subjects whose entities were added, extended or
// retracted. The engine applies the delta to the shared DS2 side once;
// every partition then rescores the subjects of its own space the delta
// can reach (partitions pair their subjects with all of DS2).
func (e *Engine) ApplyObjectDeltas(changed ...rdf.TermID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.applyObjectDeltasLocked(changed)
}

func (e *Engine) applyObjectDeltasLocked(changed []rdf.TermID) {
	delta := e.right.Apply(e.ds2, changed)
	par.Do(len(e.partitions), e.cfg.Workers, func(_, i int) {
		p := e.partitions[i]
		p.space.ApplyObjectDelta(e.ds1, delta)
		p.grow()
	})
	for _, s := range changed {
		if _, ok := e.ds2.Entity(s); ok {
			e.knownDS2[s] = struct{}{}
		} else {
			delete(e.knownDS2, s)
		}
	}
	e.lastGen2 = e.ds2.Generation()
}

// SyncStats reports what one SyncStores call ingested.
type SyncStats struct {
	// NewSubjects is the count of previously unknown ds1 subjects routed
	// into partitions.
	NewSubjects int
	// NewObjects is the count of previously unknown ds2 subjects folded
	// into the spaces' blocking and scoring.
	NewObjects int
}

// SyncStores folds store growth into the live feature spaces: any ds1
// subject the engine has never routed joins a partition (via the delta
// path, not a rebuild), and any ds2 subject the spaces have never
// blocked is scored against every partition. Generation counters gate
// the scan, so calling it when nothing changed is cheap. It does not
// detect in-place edits to known entities — report those through
// UpsertSubjects/ApplyObjectDeltas.
func (e *Engine) SyncStores() SyncStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.syncStoresLocked()
}

func (e *Engine) syncStoresLocked() SyncStats {
	var st SyncStats
	if g := e.ds1.Generation(); g != e.lastGen1 {
		var fresh []rdf.TermID
		for _, s := range e.ds1.Subjects() {
			if _, ok := e.subjectPartition[s]; !ok {
				fresh = append(fresh, s)
			}
		}
		e.upsertSubjectsLocked(fresh)
		e.lastGen1 = g
		st.NewSubjects = len(fresh)
	}
	if g := e.ds2.Generation(); g != e.lastGen2 {
		var fresh []rdf.TermID
		for _, s := range e.ds2.Subjects() {
			if _, ok := e.knownDS2[s]; !ok {
				fresh = append(fresh, s)
			}
		}
		e.applyObjectDeltasLocked(fresh)
		e.lastGen2 = g
		st.NewObjects = len(fresh)
	}
	return st
}
