package core

import (
	"alex/internal/feature"
	"alex/internal/par"
	"alex/internal/rdf"
)

// Live maintenance: the engine's feature spaces follow store growth
// through the incremental delta path (internal/feature delta.go) instead
// of re-running feature.Build. Stores only grow, so the triples a store
// has logged since the last sync name exactly its subjects that are new
// or have gained attributes. SyncStores reads both logs from where the
// last sync stopped, applies the DS2 subjects to the shared DS2 side,
// routes the DS1 subjects (a known one is rescored in its partition, a new
// one joins one) and lets every partition catch up in one fan-out; the
// feedback stream's batch apply runs the same catch-up in the fan-out of
// its episode.

// storeSync is one catch-up with the stores, decided under the write lock
// and carried out by the partitions in the fan-out that follows, before
// the lock is released: each partition rescores what delta touches, then
// upserts its subjects. A nil *storeSync does nothing.
type storeSync struct {
	subjects [][]rdf.TermID // ds1 subjects by partition
	delta    feature.ObjectDelta
}

// apply is partition i's share of the catch-up.
func (sy *storeSync) apply(e *Engine, i int) {
	if sy == nil {
		return
	}
	p := e.partitions[i]
	p.space.ApplyObjectDelta(e.ds1, sy.delta)
	for _, s := range sy.subjects[i] {
		p.space.UpsertSubject(e.ds1, s)
	}
	p.grow()
}

// route assigns each subject no partition owns yet to one and returns the
// subjects by owning partition. A new subject continues the round-robin
// rule New partitions by (partition = subjects routed so far mod
// |partitions|), so a grown subject set maps identically at any worker
// count and any arrival batching.
func (e *Engine) route(subjects []rdf.TermID) [][]rdf.TermID {
	perPartition := make([][]rdf.TermID, len(e.partitions))
	for _, s := range subjects {
		pi, ok := e.subjectPartition[s]
		if !ok {
			pi = len(e.subjectPartition) % len(e.partitions)
			e.subjectPartition[s] = pi
		}
		perPartition[pi] = append(perPartition[pi], s)
	}
	return perPartition
}

// SyncStats reports what one SyncStores call ingested.
type SyncStats struct {
	// NewSubjects is the count of previously unknown ds1 subjects routed
	// into partitions.
	NewSubjects int
	// NewObjects is the count of ds2 subjects new since the last sync.
	NewObjects int
}

// SyncStores folds store growth into the live feature spaces through the
// delta path, not a rebuild: every ds1 subject with new triples is routed
// to its partition and rescored there, and every ds2 subject with new
// triples is rescored against the partition subjects it can pair with.
// Calling it when neither store grew is cheap and starts no fan-out.
func (e *Engine) SyncStores() SyncStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	sy, st := e.planSync()
	if sy != nil {
		par.Do(len(e.partitions), e.cfg.Workers, func(_, i int) { sy.apply(e, i) })
	}
	return st
}

// planSync reads what DS2 and then DS1 have logged since the last sync,
// applies the DS2 subjects to the DS2 side and routes the DS1 subjects;
// the partitions' share is left in the returned storeSync for the caller's
// next fan-out, which must come before the write lock is released. It
// returns nil when neither store grew.
func (e *Engine) planSync() (*storeSync, SyncStats) {
	log2, log1 := e.ds2.Since(e.read2), e.ds1.Since(e.read1)
	if len(log1) == 0 && len(log2) == 0 {
		return nil, SyncStats{}
	}
	e.read1 += len(log1)
	e.read2 += len(log2)
	routed := len(e.subjectPartition)
	sy := &storeSync{delta: e.right.Apply(e.ds2, logSubjects(log2)), subjects: e.route(logSubjects(log1))}
	return sy, SyncStats{NewSubjects: len(e.subjectPartition) - routed, NewObjects: sy.delta.NewSubjects()}
}

// logSubjects returns the distinct subjects of log in first-seen order.
func logSubjects(log []rdf.TripleID) []rdf.TermID {
	var out []rdf.TermID
	seen := make(map[rdf.TermID]struct{})
	for _, t := range log {
		if _, ok := seen[t.S]; !ok {
			seen[t.S] = struct{}{}
			out = append(out, t.S)
		}
	}
	return out
}
