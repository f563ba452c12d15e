package snapshot

import "math/rand"

// CountingSource wraps a seeded math/rand source and counts raw draws,
// which is what makes a math/rand stream checkpointable: the package
// exposes no internal state, but replaying the recorded number of raw
// draws from a fresh same-seeded source lands the stream at the
// identical position. The wrapper forwards the values untouched, so a
// stream drawn through it is the stream the bare source would give.
type CountingSource struct {
	src   rand.Source64
	draws int64
}

// NewCountingSource returns a counting source over rand.NewSource(seed).
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *CountingSource) Int63() int64 { s.draws++; return s.src.Int63() }

func (s *CountingSource) Uint64() uint64 { s.draws++; return s.src.Uint64() }

func (s *CountingSource) Seed(seed int64) { s.src.Seed(seed); s.draws = 0 }

// maxReplayDraws bounds the draws a restore will replay. A payload is
// outside input, and without a bound a corrupt count spins for hours;
// the largest runs in the repo draw a few million times.
const maxReplayDraws = 1 << 28

// State visits the stream position. Restoring repositions the source by
// discarding the recorded number of draws, so the target must not have
// drawn yet (a source that already drew more cannot rewind).
func (s *CountingSource) State(c Codec) {
	draws := s.draws
	c.I64(&draws)
	if c.Saving() || c.Err() != nil {
		return
	}
	c.Expect("rng draws already taken", s.draws, 0)
	if draws < 0 || draws > maxReplayDraws {
		c.r.fail("rng draw count %d outside [0, %d]", draws, maxReplayDraws)
	}
	if c.Err() != nil {
		return
	}
	for i := int64(0); i < draws; i++ {
		s.src.Int63()
	}
	s.draws = draws
}
