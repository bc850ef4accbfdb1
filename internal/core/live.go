package core

import (
	"alex/internal/feature"
	"alex/internal/par"
	"alex/internal/rdf"
)

// Live maintenance: the engine's feature spaces follow store growth
// through the incremental delta path (internal/feature delta.go)
// instead of re-running feature.Build. UpsertSubjects and
// ApplyObjectDeltas are the explicit entry points for callers that know
// exactly what changed; SyncStores is the generation-driven catch-up
// that spots new subjects on either side, and the feedback stream's batch
// apply runs the same catch-up in the fan-out of its episode. In-place
// modification of an entity the engine already knows is invisible to
// SyncStores (the generation moves but the subject list does not) —
// callers performing such edits must report them explicitly.

// storeSync is one catch-up with the stores, decided under the write lock
// and carried out by the partitions in the fan-out that follows, before
// the lock is released: each partition upserts its subjects, then rescores
// what delta touches. The zero value does nothing.
type storeSync struct {
	subjects [][]rdf.TermID // ds1 subjects by partition; nil when none
	delta    feature.ObjectDelta
}

// apply is partition i's share of the catch-up.
func (sy *storeSync) apply(e *Engine, i int) {
	p := e.partitions[i]
	if sy.subjects != nil {
		for _, s := range sy.subjects[i] {
			p.space.UpsertSubject(e.ds1, s)
		}
	}
	p.space.ApplyObjectDelta(e.ds1, sy.delta)
	p.grow()
}

// run carries the catch-up out on its own fan-out.
func (sy *storeSync) run(e *Engine) {
	par.Do(len(e.partitions), e.cfg.Workers, func(_, i int) { sy.apply(e, i) })
}

// UpsertSubjects routes ds1 subjects into the live feature spaces. A
// subject the engine already owns is rescored in its partition; a new
// subject is assigned by continuing the round-robin rule new subjects
// have always followed (partition = assigned mod |partitions|), so a
// grown subject set maps identically at any worker count and any
// arrival batching. Subjects are processed in argument order.
func (e *Engine) UpsertSubjects(subjects ...rdf.TermID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(subjects) == 0 {
		return
	}
	sy := storeSync{subjects: e.route(subjects)}
	sy.run(e)
	e.lastGen1 = e.ds1.Generation()
}

// route assigns each subject no partition owns yet to one, by the
// round-robin rule, and returns the subjects by owning partition.
func (e *Engine) route(subjects []rdf.TermID) [][]rdf.TermID {
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
	return perPartition
}

// ApplyObjectDeltas rescores every pair a DS2-side change can touch:
// changed lists the ds2 subjects whose entities were added or extended.
// The engine applies the delta to the shared DS2 side once; every
// partition then rescores the subjects of its own space the delta can
// reach (partitions pair their subjects with all of DS2).
func (e *Engine) ApplyObjectDeltas(changed ...rdf.TermID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sy := storeSync{delta: e.applyRight(changed)}
	sy.run(e)
	e.lastGen2 = e.ds2.Generation()
}

// applyRight applies a DS2 change to the shared DS2 side. It is the side's
// only writer, and runs between fan-outs.
func (e *Engine) applyRight(changed []rdf.TermID) feature.ObjectDelta {
	for _, s := range changed {
		if _, ok := e.ds2.Entity(s); ok {
			e.knownDS2[s] = struct{}{}
		}
	}
	return e.right.Apply(e.ds2, changed)
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
	sy, st := e.planSync()
	if sy.subjects != nil || st.NewObjects > 0 {
		sy.run(e)
	}
	return st
}

// planSync routes every ds1 subject the engine has never seen and, when
// DS2 moved, applies the change to the DS2 side; the partitions' share is
// left in the returned storeSync for the caller's next fan-out, which must
// come before the write lock is released. A ds1 newcomer is scored against
// the DS2 side as it was: when both stores moved, the upserts get a fan-out
// of their own before the side changes.
func (e *Engine) planSync() (storeSync, SyncStats) {
	var sy storeSync
	var st SyncStats
	if g := e.ds1.Generation(); g != e.lastGen1 {
		var fresh []rdf.TermID
		for _, s := range e.ds1.Subjects() {
			if _, ok := e.subjectPartition[s]; !ok {
				fresh = append(fresh, s)
			}
		}
		if len(fresh) > 0 {
			sy.subjects = e.route(fresh)
		}
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
		if sy.subjects != nil {
			sy.run(e)
			sy.subjects = nil
		}
		sy.delta = e.applyRight(fresh)
		e.lastGen2 = g
		st.NewObjects = len(fresh)
	}
	return sy, st
}
