package sim

// Event storage: a chunked, non-moving slab arena. Events are addressed by
// dense uint32 indices instead of pointers, so the wheel's entries, the
// heap's positions, the free list and every Handle are 4-byte indices into
// contiguous chunks — the hot pending set packs into a few cache-resident
// pages instead of being scattered across the GC heap, and the chunks
// themselves hold no pointers the collector must trace (the cold closure
// path lives in a parallel, lazily allocated chunk array).
//
// Chunks never move and never shrink: an index issued once stays valid for
// the engine's lifetime, and the generation counter on each slot extends the
// PR 3 handle discipline — a recycled slot bumps its generation, so every
// stale Handle (and any stale index a test or tool holds) is detectable.

const (
	// eventChunkBits sizes a chunk at 4096 events — 256 KiB of 64-byte
	// events, a few pages of closure slots when the cold path is in use.
	eventChunkBits = 12

	// EventChunkSize is the number of events per slab chunk. Exported so the
	// scale ledger can stamp the slab geometry a measurement ran under.
	EventChunkSize = 1 << eventChunkBits

	eventChunkMask = EventChunkSize - 1
)

// nilIdx is the null event index: the end of the free list and the
// "no event" return of popDue. Index 0 is a valid slot, so the sentinel is
// the all-ones pattern.
const nilIdx = ^uint32(0)

// eventSlab owns every Event an engine ever issues. Slots are carved
// sequentially from the newest chunk; resolved events thread onto a LIFO
// free list through their next links, so steady-state churn reuses the
// hottest slots first and carving stops once the pool warms up.
type eventSlab struct {
	chunks []*[EventChunkSize]Event

	// fns holds the cold closure path: fns[c][i] is the callback of event
	// c<<eventChunkBits|i when it was scheduled with At/After rather than a
	// Handler. A chunk's closure array is allocated only when the first
	// closure lands in it, so handler-only workloads (the packet hot path)
	// never pay for it.
	fns []*[EventChunkSize]func()

	freeHead uint32 // LIFO free list threaded through Event.next
	freeLen  uint32
	carved   uint64 // slots ever issued; the engine's alloc counter
}

// at returns the event at index i. The two-level lookup compiles to two
// dependent loads; no bounds check survives on the inner index.
func (s *eventSlab) at(i uint32) *Event {
	return &s.chunks[i>>eventChunkBits][i&eventChunkMask]
}

// alloc returns a free slot: the head of the free list when one is
// available, otherwise the next carved slot (growing by one chunk when the
// current one is exhausted). Fresh slots come up outside any queue;
// recycled slots were taken out of theirs before their release.
func (s *eventSlab) alloc() (*Event, uint32) {
	if s.freeHead != nilIdx {
		idx := s.freeHead
		ev := s.at(idx)
		s.freeHead = ev.next
		s.freeLen--
		ev.next = nilIdx
		return ev, idx
	}
	idx := uint32(s.carved)
	if int(idx>>eventChunkBits) == len(s.chunks) {
		s.chunks = append(s.chunks, new([EventChunkSize]Event))
		s.fns = append(s.fns, nil)
	}
	s.carved++
	ev := s.at(idx)
	ev.index = -1
	ev.next = nilIdx
	return ev, idx
}

// free threads a resolved slot back onto the free list. The caller has
// already cleared the callback references; the slot's generation is NOT
// bumped here — it bumps on reissue, so stale handles keep reading the
// event's final state truthfully until the slot is reused.
func (s *eventSlab) free(idx uint32) {
	ev := s.at(idx)
	ev.next = s.freeHead
	s.freeHead = idx
	s.freeLen++
}

// setFn stores an event's closure in the cold parallel array, allocating
// the chunk's closure slots on first use.
func (s *eventSlab) setFn(idx uint32, fn func()) {
	c := idx >> eventChunkBits
	if s.fns[c] == nil {
		s.fns[c] = new([EventChunkSize]func())
	}
	s.fns[c][idx&eventChunkMask] = fn
}

// fn returns the closure stored for idx, nil when none is set.
func (s *eventSlab) fn(idx uint32) func() {
	c := idx >> eventChunkBits
	if fns := s.fns[c]; fns != nil {
		return fns[idx&eventChunkMask]
	}
	return nil
}

// clearFn drops the closure reference so the engine does not pin it alive
// after the event resolves.
func (s *eventSlab) clearFn(idx uint32) {
	s.fns[idx>>eventChunkBits][idx&eventChunkMask] = nil
}
