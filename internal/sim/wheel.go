package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Wheel geometry. Events are placed by tick — 2^12 ps ≈ 4.1 ns — on six
// levels of 64 slots, level l slots 64^l ticks wide, covering deltas up to
// 2^36 ticks = 2^48 ps (≈ 281 simulated seconds); anything further waits in
// an overflow chain until the clock gets close enough.
const (
	tickBits         = 12
	wheelBits        = 6
	wheelSlots       = 1 << wheelBits
	wheelMask        = wheelSlots - 1
	wheelLevels      = 6
	wheelTickBits    = wheelBits * wheelLevels // 36: the horizon in ticks
	wheelHorizonBits = tickBits + wheelTickBits

	numSlots     = wheelLevels * wheelSlots // slot chains, named level<<wheelBits | slot
	overflowSlot = numSlots                 // the beyond-horizon chain
)

// entry is a wheel resident: the event's deadline, so scans and cascades
// never load the event, its slab index and the generation it was scheduled
// under. A canceled event's entry stays behind as a tombstone, recognized on
// the slab by a generation mismatch or the canceled flag.
type entry struct {
	time Time
	idx  uint32
	gen  uint32
}

// blockEntries sizes an entryBlock at 248 bytes.
const blockEntries = 15

type entryBlock struct {
	e    [blockEntries]entry
	next *entryBlock
}

// chain is a slot's entries in push order: full blocks ahead of a tail block
// holding n, kept here so a push loads no block header. Chains drain whole
// and in order, so they list events in schedule order, which on one engine
// is their tie-break order too: that keeps the run's sort cheap.
type chain struct {
	head, tail *entryBlock
	n          int
}

// wheel is the hierarchical timing-wheel scheduler. An event at time t goes
// to the level of the top 6-bit group where t's tick differs from the clock
// cur's tick, at slot (t >> (12 + 6·level)) & 63. Every resident shares all
// higher groups with cur, so slots within a level are ordered in time from
// the clock's slot upward with no wraparound, and the lowest set bit of a
// level's occupancy bitmap is that level's earliest window.
//
// Events due in cur's own tick live in the run instead, sorted by
// (time, schedAt, seq) and served from its head. Cancel removes a run
// resident outright; anywhere else it leaves a tombstone, dropped when it
// surfaces, and the wheel compacts once tombstones outnumber live events.
type wheel struct {
	sl       *eventSlab
	cur      Time                // the instant the wheel last advanced to
	slots    [numSlots + 1]chain // slot chains, then the overflow chain
	occupied [wheelLevels]uint64 // bit s set iff slots[l<<6|s] is nonempty

	run   []entry // cur's tick, sorted; run[head:] are pending
	spare []entry // sortRun's second buffer
	head  int

	free   *entryBlock // drained blocks, reused before new ones are made
	blocks int         // blocks ever made

	count       int // live events
	dead        int // tombstones in the slot and overflow chains
	overflowLen int // live events in the overflow chain

	// Lifetime high-water marks, maintained inline on the schedule path.
	peakCount    int
	peakOverflow int
}

// live reports whether e still stands for a pending event.
func (w *wheel) live(e entry) bool {
	ev := w.sl.at(e.idx)
	return ev.gen == e.gen && ev.flags&evCanceled == 0
}

// before reports whether a sorts strictly before b in (time, schedAt, seq)
// order, loading the events only when their deadlines tie.
func (w *wheel) before(a, b entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	ea, eb := w.sl.at(a.idx), w.sl.at(b.idx)
	return ea.schedAt < eb.schedAt || ea.schedAt == eb.schedAt && ea.seq < eb.seq
}

// runIndex is the position of the first pending run entry not before e.
func (w *wheel) runIndex(e entry) int {
	return w.head + sort.Search(len(w.run)-w.head, func(k int) bool { return !w.before(w.run[w.head+k], e) })
}

func (w *wheel) schedule(ev *Event, idx uint32) {
	w.count++
	w.peakCount = max(w.peakCount, w.count)
	e := entry{ev.time, idx, ev.gen}
	switch d := uint64(ev.time^w.cur) >> tickBits; {
	case d == 0:
		// Due in the current tick. A plain schedule sorts last; only a
		// backdated stamp, a reserved key or an earlier deadline lands
		// inside the run.
		if n := len(w.run); n == w.head || w.before(w.run[n-1], e) {
			w.run = append(w.run, e)
		} else {
			w.run = slices.Insert(w.run, w.runIndex(e), e)
		}
	case d>>wheelTickBits != 0:
		w.push(overflowSlot, e)
		w.overflowLen++
		w.peakOverflow = max(w.peakOverflow, w.overflowLen)
	default:
		w.place(e, d)
	}
}

// place links e into the slot selected by d, its nonzero in-horizon tick
// distance (XOR) from the clock.
func (w *wheel) place(e entry, d uint64) {
	l := (63 - bits.LeadingZeros64(d)) / wheelBits
	s := int(uint64(e.time)>>(tickBits+l*wheelBits)) & wheelMask
	w.push(l<<wheelBits|s, e)
	w.occupied[l] |= 1 << s
}

// push appends e to chain i, starting a new tail block when the tail is full.
func (w *wheel) push(i int, e entry) {
	c := &w.slots[i]
	if c.tail == nil || c.n == blockEntries {
		b := w.free
		if b == nil {
			b = new(entryBlock)
			w.blocks++
		} else {
			w.free, b.next = b.next, nil
		}
		if c.tail == nil {
			c.head = b
		} else {
			c.tail.next = b
		}
		c.tail, c.n = b, 0
	}
	c.tail.e[c.n] = e
	c.n++
}

// take detaches chain i and feeds its entries, in order, to f, releasing
// each block to the free list once read; f may push, even onto slot i.
func (w *wheel) take(i int, f func(e entry)) {
	c := w.slots[i]
	w.slots[i] = chain{}
	for b := c.head; b != nil; {
		for _, e := range b.e[:c.fill(b)] {
			f(e)
		}
		next := b.next
		b.next, w.free = w.free, b
		b = next
	}
}

// fill is the number of entries block b of the chain holds.
func (c chain) fill(b *entryBlock) int {
	if b == c.tail {
		return c.n
	}
	return blockEntries
}

// remove cancels a pending event. Its time says where its entry is: the run
// holds cur's tick, the overflow chain everything beyond cur's horizon.
func (w *wheel) remove(ev *Event, idx uint32) {
	w.count--
	switch d := uint64(ev.time^w.cur) >> tickBits; {
	case d == 0:
		// The run is binary-searched, so it must not keep an entry whose key
		// the slab no longer holds. A timer rearmed within its tick cancels
		// the run's last entry.
		if n := len(w.run); w.run[n-1].idx == idx {
			w.run = w.run[:n-1]
		} else {
			i := w.runIndex(entry{ev.time, idx, ev.gen})
			w.run = slices.Delete(w.run, i, i+1)
		}
		return
	case d>>wheelTickBits != 0:
		w.overflowLen--
	}
	if w.dead++; w.dead > w.count {
		// Compact: rebuild every chain from its live entries.
		for l := range w.occupied {
			for occ := w.occupied[l]; occ != 0; occ &= occ - 1 {
				s := bits.TrailingZeros64(occ)
				if !w.purge(l<<wheelBits | s) {
					w.occupied[l] &^= 1 << s
				}
			}
		}
		w.purge(overflowSlot)
	}
}

// purge drops chain i's tombstones and reports whether anything remains.
func (w *wheel) purge(i int) bool {
	w.take(i, func(e entry) {
		if w.live(e) {
			w.push(i, e)
		} else {
			w.dead--
		}
	})
	return w.slots[i].head != nil
}

// nextTime returns the earliest pending deadline outside the run. The XOR
// placement orders levels in time — every level-l resident precedes every
// level-(l+1) resident, and overflow lies beyond them all — so that is the
// earliest live entry of the lowest occupied slot of the lowest occupied
// level. Tombstones met there as the minimum are purged, so it is exact.
func (w *wheel) nextTime() (Time, bool) {
	for l := range w.occupied {
		for w.occupied[l] != 0 {
			s := bits.TrailingZeros64(w.occupied[l])
			if t, ok := w.minLive(l<<wheelBits | s); ok {
				return t, true
			}
			w.occupied[l] &^= 1 << s
		}
	}
	return w.minLive(overflowSlot)
}

// minLive returns the earliest live deadline in chain i, or false once the
// chain is empty. A tombstone found as the minimum is replaced by the
// chain's last entry.
func (w *wheel) minLive(i int) (Time, bool) {
	c := &w.slots[i]
	for c.head != nil {
		mb, mj, pen := c.head, 0, (*entryBlock)(nil)
		for b := c.head; b != nil; b = b.next {
			if b != c.tail {
				pen = b
			}
			for j := range c.fill(b) {
				if b.e[j].time < mb.e[mj].time {
					mb, mj = b, j
				}
			}
		}
		if w.live(mb.e[mj]) {
			return mb.e[mj].time, true
		}
		c.n--
		mb.e[mj] = c.tail.e[c.n]
		if c.n == 0 {
			c.tail.next, w.free = w.free, c.tail
			if pen == nil {
				*c = chain{}
			} else {
				pen.next, c.tail, c.n = nil, pen, blockEntries
			}
		}
		w.dead--
	}
	return MaxTime, false
}

// refill loads the run with the next tick's events if they are due by
// limit. On level 0, where a slot is one tick wide, one pass over the slot
// copies its live entries and finds the earliest. Otherwise the clock moves
// to nextTime and cascades: the slot holding it on each level re-places its
// entries strictly lower, those in its tick into the run — after migrating
// overflow entries come into range if it crossed a horizon boundary.
func (w *wheel) refill(limit Time) bool {
	w.run, w.head = w.run[:0], 0
	for w.occupied[0] != 0 {
		s := bits.TrailingZeros64(w.occupied[0])
		c, dead, t := w.slots[s], 0, MaxTime
		for b := c.head; b != nil; b = b.next {
			for _, e := range b.e[:c.fill(b)] {
				if w.live(e) {
					w.run = append(w.run, e)
					t = min(t, e.time)
				} else {
					dead++
				}
			}
		}
		if t > limit && len(w.run) > 0 {
			w.run = w.run[:0]
			return false
		}
		w.dead -= dead
		w.occupied[0] &^= 1 << s
		w.take(s, func(entry) {})
		if len(w.run) > 0 {
			w.cur = t
			w.sortRun()
			return true
		}
	}
	t, ok := w.nextTime()
	if !ok || t > limit {
		return false
	}
	if uint64(w.cur^t)>>wheelHorizonBits != 0 {
		w.cur = t
		w.take(overflowSlot, func(e entry) {
			if uint64(e.time^t)>>wheelHorizonBits == 0 && w.live(e) {
				w.overflowLen--
			}
			w.settle(e)
		})
	}
	w.cur = t
	for l := wheelLevels - 1; l > 0; l-- {
		if s := int(uint64(t)>>(tickBits+l*wheelBits)) & wheelMask; w.occupied[l]&(1<<s) != 0 {
			w.occupied[l] &^= 1 << s
			w.take(l<<wheelBits|s, w.settle)
		}
	}
	w.sortRun()
	return true
}

// settle re-places an entry after the clock moved: into the run when due in
// the current tick (dropping it there if it is a tombstone), strictly lower
// in the wheel otherwise, or back into overflow while beyond the horizon.
func (w *wheel) settle(e entry) {
	switch d := uint64(e.time^w.cur) >> tickBits; {
	case d>>wheelTickBits != 0:
		w.push(overflowSlot, e)
	case d != 0:
		w.place(e, d)
	case w.live(e):
		w.run = append(w.run, e)
	default:
		w.dead--
	}
}

// sortRun orders the run by (time, schedAt, seq). Stable counting passes on
// the in-tick offset — the top six bits, for long runs the low six first —
// leave the few dozen events of a loaded tick nearly sorted, and in schedule
// order among equal deadlines, so the insertion sort moves little.
func (w *wheel) sortRun() {
	if len(w.run) > 256 {
		w.countingPass(0)
	}
	if len(w.run) > 12 {
		w.countingPass(tickBits - wheelBits)
	}
	r := w.run
	for i := 1; i < len(r); i++ {
		e, j := r[i], i
		for ; j > 0 && w.before(e, r[j-1]); j-- {
			r[j] = r[j-1]
		}
		r[j] = e
	}
}

// countingPass stably sorts the run by the six deadline bits at shift.
func (w *wheel) countingPass(shift int) {
	var at [wheelSlots + 1]int32
	for _, e := range w.run {
		at[1+int(e.time>>shift)&wheelMask]++
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	out := slices.Grow(w.spare[:0], len(w.run))[:len(w.run)]
	for _, e := range w.run {
		k := int(e.time>>shift) & wheelMask
		out[at[k]] = e
		at[k]++
	}
	w.run, w.spare = out, w.run
}

func (w *wheel) popDue(limit Time) uint32 {
	if w.head == len(w.run) && !w.refill(limit) {
		return nilIdx
	}
	e := w.run[w.head]
	if e.time > limit {
		return nilIdx
	}
	w.head++
	w.count--
	return e.idx
}

// next returns the earliest pending deadline. The run holds the current
// tick's remaining events, which precede everything still in the slots.
func (w *wheel) next() (Time, bool) {
	if w.head < len(w.run) {
		return w.run[w.head].time, true
	}
	return w.nextTime()
}

func (w *wheel) size() int { return w.count }

func (w *wheel) kind() SchedulerKind { return SchedWheel }

func (w *wheel) stats() SchedStats {
	return SchedStats{Pending: w.count, PeakPending: w.peakCount, Overflow: w.overflowLen, PeakOverflow: w.peakOverflow}
}

// check validates the wheel's structural invariants: the clock is not ahead
// of the engine; occupancy bits mirror slot contents; every entry is a
// tombstone or a pending event whose deadline it carries, in the slot its
// deadline selects, on the level its distance from the clock selects (no
// overdue cascade) and in a later tick than the clock; the run holds only
// live current-tick events in (time, schedAt, seq) order; overflow entries
// are beyond the horizon; and the live, tombstone, overflow and block counts
// are exact.
func (w *wheel) check(now Time) error {
	if w.cur > now {
		return fmt.Errorf("sim: wheel clock %v ahead of engine clock %v", w.cur, now)
	}
	live, dead, over, blocks := 0, 0, 0, 0
	for i, c := range w.slots {
		l, s, what := i>>wheelBits, i&wheelMask, "wheel overflow"
		if i != overflowSlot {
			what = fmt.Sprintf("wheel level %d slot %d", l, s)
			if occupied := w.occupied[l]&(1<<s) != 0; occupied != (c.head != nil) {
				return fmt.Errorf("sim: %s occupancy bit %v disagrees with contents", what, occupied)
			}
		}
		if c.head != nil && (c.n <= 0 || c.n > blockEntries) {
			return fmt.Errorf("sim: %s tail block holds %d entries", what, c.n)
		}
		for b := c.head; b != nil; b = b.next {
			blocks++
			for _, e := range b.e[:c.fill(b)] {
				ev, d := w.sl.at(e.idx), uint64(e.time^w.cur)>>tickBits
				if ev.gen != e.gen || ev.canceled() {
					dead++
				} else if ev.fired() || ev.time != e.time {
					return fmt.Errorf("sim: %s entry at %v stands for a resolved or moved event", what, e.time)
				} else if live++; i == overflowSlot {
					over++
				}
				switch {
				case i == overflowSlot:
					if d>>wheelTickBits == 0 {
						return fmt.Errorf("sim: overflow event at %v already within the wheel horizon (clock %v)", e.time, w.cur)
					}
				case e.time < w.cur || d == 0:
					return fmt.Errorf("sim: %s event at %v not after the clock's tick (clock %v)", what, e.time, w.cur)
				case int(uint64(e.time)>>(tickBits+l*wheelBits))&wheelMask != s:
					return fmt.Errorf("sim: event at %v in %s, deadline selects another slot", e.time, what)
				case (63-bits.LeadingZeros64(d))/wheelBits != l:
					return fmt.Errorf("sim: event at %v overdue for cascade out of level %d (clock %v)", e.time, l, w.cur)
				}
			}
		}
	}
	for i, e := range w.run[w.head:] {
		switch {
		case !w.live(e) || w.sl.at(e.idx).time != e.time:
			return fmt.Errorf("sim: run entry %d at %v is not a pending event", i, e.time)
		case e.time < w.cur || uint64(e.time^w.cur)>>tickBits != 0:
			return fmt.Errorf("sim: run event at %v outside the clock's tick (clock %v)", e.time, w.cur)
		case i > 0 && !w.before(w.run[w.head+i-1], e):
			return fmt.Errorf("sim: run out of (time, schedAt, seq) order at entry %d", i)
		}
		live++
	}
	for b := w.free; b != nil; b = b.next {
		blocks++
	}
	if live != w.count || dead != w.dead || over != w.overflowLen || blocks != w.blocks {
		return fmt.Errorf("sim: wheel holds %d events, %d tombstones, %d overflow events and %d blocks; its counters say %d, %d, %d and %d",
			live, dead, over, blocks, w.count, w.dead, w.overflowLen, w.blocks)
	}
	return nil
}
