package core

import (
	"sync"

	"alex/internal/obs"
)

// StreamConfig bounds a FeedbackStream.
type StreamConfig struct {
	// Capacity is the maximum number of buffered (unapplied) feedback
	// items; submissions beyond it are shed. 0 means 1024.
	Capacity int
	// BatchSize is the number of buffered items that triggers an
	// automatic batched apply. 0 means 64.
	BatchSize int
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Capacity == 0 {
		c.Capacity = 1024
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	return c
}

// FeedbackStream ingests user feedback continuously: items accumulate
// in a bounded buffer and are applied to the engine in batches. A batch
// apply is a store sync followed by an episode (so feedback against
// freshly upserted entities lands on live feature spaces), with the result
// of SyncStores then ApplyEpisode but without a fan-out of the sync's own:
// each partition catches up with the stores, then runs its share of the
// episode. Application order is submission order, so results are
// independent of how submissions were batched — only of their sequence.
// The stream spawns no goroutines: applies run on the submitting (or
// flushing) goroutine, keeping the engine's determinism contract and
// goroutine accounting intact. Safe for concurrent use.
type FeedbackStream struct {
	mu     sync.Mutex
	e      *Engine
	cfg    StreamConfig
	buf    []Feedback
	stats  StreamStats
	cSub   *obs.Counter
	cShed  *obs.Counter
	cBatch *obs.Counter
	gDepth *obs.Gauge
}

// StreamStats is a snapshot of a stream's lifetime accounting.
type StreamStats struct {
	// Submitted counts items accepted into the buffer.
	Submitted int
	// Shed counts items rejected because the buffer was at capacity.
	Shed int
	// Batches counts batched applies driven through the engine.
	Batches int
	// Applied counts items drained out of the buffer by applies.
	Applied int
}

// FeedbackStream creates a stream over the engine. Instruments come
// from the registry attached via SetObserver (nil-safe when absent).
func (e *Engine) FeedbackStream(cfg StreamConfig) *FeedbackStream {
	e.mu.RLock()
	reg := e.obsReg
	e.mu.RUnlock()
	return &FeedbackStream{
		e:      e,
		cfg:    cfg.withDefaults(),
		cSub:   reg.Counter(obs.CoreStreamSubmitted),
		cShed:  reg.Counter(obs.CoreStreamShed),
		cBatch: reg.Counter(obs.CoreStreamBatches),
		gDepth: reg.Gauge(obs.CoreStreamQueueDepth),
	}
}

// Submit appends items to the stream, shedding any beyond capacity, and
// applies full batches inline. It returns the number of items accepted
// and the stats of every episode the call applied (empty when the
// buffer has not reached BatchSize yet).
func (s *FeedbackStream) Submit(items ...Feedback) (accepted int, applied []EpisodeStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range items {
		if len(s.buf) >= s.cfg.Capacity {
			s.stats.Shed++
			s.cShed.Inc()
			continue
		}
		s.buf = append(s.buf, it)
		s.stats.Submitted++
		s.cSub.Inc()
		accepted++
		if len(s.buf) >= s.cfg.BatchSize {
			applied = append(applied, s.applyLocked(s.cfg.BatchSize))
		}
	}
	s.gDepth.Set(int64(len(s.buf)))
	return accepted, applied
}

// Flush applies all buffered items now, regardless of batch size. The
// returned slice is empty when the buffer was empty.
func (s *FeedbackStream) Flush() []EpisodeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var applied []EpisodeStats
	for len(s.buf) > 0 {
		n := len(s.buf)
		if n > s.cfg.BatchSize {
			n = s.cfg.BatchSize
		}
		applied = append(applied, s.applyLocked(n))
	}
	s.gDepth.Set(0)
	return applied
}

// applyLocked drains the first n buffered items through one engine
// episode, syncing the stores first so the episode sees live spaces.
// Planning the sync is serial; carrying it out rides the episode's
// fan-out (planSync).
func (s *FeedbackStream) applyLocked(n int) EpisodeStats {
	batch := make([]Feedback, n)
	copy(batch, s.buf)
	s.buf = s.buf[:copy(s.buf, s.buf[n:])]
	s.stats.Batches++
	s.stats.Applied += n
	s.cBatch.Inc()
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	sy, _ := s.e.planSync()
	return s.e.applyEpisodeLocked(batch, sy)
}

// Pending returns the number of buffered, not yet applied items.
func (s *FeedbackStream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Stats returns a snapshot of the stream's lifetime accounting.
func (s *FeedbackStream) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
