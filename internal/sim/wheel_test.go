package sim

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// wheelHorizon is the first delta that no longer fits in the wheel's levels
// and must ride the overflow chain.
const wheelHorizon = Time(1) << wheelHorizonBits

// TestWheelFarFutureOverflow schedules events beyond the top level's horizon
// and checks they park on the overflow chain, survive invariant checks, and
// fire in order once the clock gets there — interleaved with near events.
func TestWheelFarFutureOverflow(t *testing.T) {
	e := NewEngine()
	w := e.q.(*wheel)
	var order []int
	e.At(5, func() { order = append(order, 1) })
	e.At(wheelHorizon+7, func() { order = append(order, 3) })    // one horizon out
	e.At(3*wheelHorizon+11, func() { order = append(order, 4) }) // several horizons out
	e.At(Time(1000*Microsecond), func() { order = append(order, 2) })
	if w.slots[overflowSlot].head == nil {
		t.Fatal("far-future events did not land on the overflow chain")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("with overflow residents: %v", err)
	}
	e.Run()
	if len(order) != 4 {
		t.Fatalf("fired %d of 4 events", len(order))
	}
	for i, want := range []int{1, 2, 3, 4} {
		if order[i] != want {
			t.Fatalf("firing order %v, want [1 2 3 4]", order)
		}
	}
	if w.slots[overflowSlot].head != nil {
		t.Fatal("overflow chain not drained")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

// TestWheelOverflowCancel cancels the earliest overflow resident, leaving a
// tombstone that the next earliest-deadline query must purge, and checks the
// remaining event still fires correctly.
func TestWheelOverflowCancel(t *testing.T) {
	e := NewEngine()
	hMin := e.At(wheelHorizon+1, func() { t.Fatal("canceled overflow event fired") })
	fired := false
	e.At(wheelHorizon+2, func() { fired = true })
	hMin.Cancel() // tombstones the overflow minimum
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after canceling the overflow minimum: %v", err)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
	if end := e.Run(); end != wheelHorizon+2 {
		t.Fatalf("run ended at %v, want %v", end, wheelHorizon+2)
	}
	if !fired {
		t.Fatal("surviving overflow event did not fire")
	}
}

// TestWheelZeroDelay pins At(now): an event at the current instant fires in
// the same Run, after already-pending same-time events with smaller seq and
// before anything later — including when scheduled from inside a callback at
// the same timestamp.
func TestWheelZeroDelay(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedWheel} {
		e := NewEngineWith(kind)
		var order []int
		e.At(10, func() {
			order = append(order, 1)
			e.At(10, func() { order = append(order, 3) }) // zero delay, mid-dispatch
			e.At(e.Now(), func() { order = append(order, 4) })
		})
		e.At(10, func() { order = append(order, 2) })
		e.At(11, func() { order = append(order, 5) })
		e.At(0, func() { order = append(order, 0) }) // zero-delay at a fresh engine's now
		e.Run()
		want := []int{0, 1, 2, 3, 4, 5}
		if len(order) != len(want) {
			t.Fatalf("%s: fired %d of %d events: %v", kind, len(order), len(want), order)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("%s: firing order %v, want %v", kind, order, want)
			}
		}
	}
}

// TestTimerResetAcrossCascadeBoundary arms a rearmable Timer, lets the clock
// approach a high-level slot boundary, and Resets the deadline across it —
// the cancel-and-reinsert must survive the cascade that rebases the wheel.
func TestTimerResetAcrossCascadeBoundary(t *testing.T) {
	e := NewEngine()
	var tm Timer
	fired := 0
	tm.Init(e, func() { fired++ })

	// Park the deadline just past a level-2 boundary (64^2 ticks), then walk
	// the clock toward the boundary tick by tick with plain events, rearming
	// the timer each step so its event keeps crossing the cascade.
	boundary := Time(1) << (tickBits + 2*wheelBits)
	tm.ResetAt(boundary + 100)
	for step := Time(1); step < 10; step++ {
		at := boundary - (10-step)<<tickBits
		e.At(at, func() { tm.ResetAt(boundary + 100) })
	}
	e.RunUntil(boundary + 50)
	if fired != 0 {
		t.Fatalf("timer fired %d times before its deadline", fired)
	}
	if !tm.Pending() || tm.When() != boundary+100 {
		t.Fatalf("timer pending=%v when=%v, want armed at %v", tm.Pending(), tm.When(), boundary+100)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("mid-run: %v", err)
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want exactly 1", fired)
	}
	if e.Now() != boundary+100 {
		t.Fatalf("run ended at %v, want %v", e.Now(), boundary+100)
	}
}

// TestWheelInvariantsUnderChurn hammers the wheel with a random
// schedule/cancel/advance mix and validates the full structural invariant
// set after every burst.
func TestWheelInvariantsUnderChurn(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewPCG(11, 7))
	var handles []Handle
	for round := 0; round < 200; round++ {
		for i := 0; i < 20; i++ {
			// Deltas spread across every level and into overflow.
			d := Duration(1) << rng.Uint64N(52)
			handles = append(handles, e.After(d+Duration(rng.Uint64N(1000)), func() {}))
		}
		for i := 0; i < 8 && len(handles) > 0; i++ {
			j := rng.IntN(len(handles))
			handles[j].Cancel()
			handles[j] = handles[len(handles)-1]
			handles = handles[:len(handles)-1]
		}
		e.RunUntil(e.Now() + Time(rng.Uint64N(1<<20)))
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	e.Run()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("drained: %v", err)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after full drain", e.Pending())
	}
}

// TestCheckInvariantsDetectsWheelCorruption pokes the wheel's structure
// directly and checks each corruption is caught, for the right reason:
// occupancy-bit drift, count drift, slot mismembership, an overdue cascade,
// an overdue overflow migration, a clock ahead of the engine, a run out of
// order, and tombstone and block bookkeeping drift.
func TestCheckInvariantsDetectsWheelCorruption(t *testing.T) {
	const level1 = 73 << tickBits // tick 73: level 1, slot 1
	newPopulated := func() (*Engine, *wheel) {
		e := NewEngine()
		e.At(100, func() {})  // current tick: the run
		e.At(200, func() {})  // the run
		e.At(5000, func() {}) // tick 1: level 0, slot 1
		e.At(level1, func() {})
		e.At(wheelHorizon+3, func() {})
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("populated: %v", err)
		}
		return e, e.q.(*wheel)
	}
	cases := []struct {
		name, want string
		poke       func(e *Engine, w *wheel)
	}{
		{"occupancy-bit drift", "occupancy bit", func(e *Engine, w *wheel) {
			w.occupied[0] |= 1 << 7 // bit set for an empty slot
		}},
		{"count drift", "counters say", func(e *Engine, w *wheel) { w.count++ }},
		{"slot mismembership", "selects another slot", func(e *Engine, w *wheel) {
			// Relocate the level-1 chain into a slot its deadline does not select.
			from, to := 1<<wheelBits|1, 1<<wheelBits|9
			if w.slots[from].head == nil {
				t.Fatal("test premise broken: expected a level-1 resident at slot 1")
			}
			w.slots[to], w.slots[from] = w.slots[from], chain{}
			w.occupied[1] = 1 << 9
		}},
		{"overdue cascade", "overdue for cascade", func(e *Engine, w *wheel) {
			// The tick-1 entry on level 1, in the slot its deadline selects
			// there: it shares that level's group with the clock, so it should
			// have cascaded to level 0.
			w.slots[1<<wheelBits], w.slots[1] = w.slots[1], chain{}
			w.occupied[0] &^= 1 << 1
			w.occupied[1] |= 1
		}},
		{"overdue overflow migration", "already within the wheel horizon", func(e *Engine, w *wheel) {
			// An overflow resident whose delta now fits the horizon.
			b := w.slots[overflowSlot].head
			b.e[0].time = 200 << tickBits
			w.sl.at(b.e[0].idx).time = b.e[0].time
		}},
		{"clock ahead of engine", "ahead of engine clock", func(e *Engine, w *wheel) {
			// A wheel clock ahead of the engine clock means popDue overshot.
			w.cur = 50
		}},
		{"run out of order", "out of (time, schedAt, seq) order", func(e *Engine, w *wheel) {
			w.run[0], w.run[1] = w.run[1], w.run[0]
		}},
		{"tombstone drift", "counters say", func(e *Engine, w *wheel) { w.dead++ }},
		{"tail fill drift", "tail block holds", func(e *Engine, w *wheel) { w.slots[1].n = 0 }},
		{"block leak", "counters say", func(e *Engine, w *wheel) { w.blocks++ }},
	}
	for _, c := range cases {
		e, w := newPopulated()
		c.poke(e, w)
		err := e.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestWheelPendingAcrossLevels cross-checks Pending and EventAllocs while
// events sit at different levels and in overflow.
func TestWheelPendingAcrossLevels(t *testing.T) {
	e := NewEngine()
	deltas := []Duration{1, 63, 64, 4095, 4096, 1 << 18, 1 << 30, 1 << 47, 1 << 50}
	for _, d := range deltas {
		e.After(d, func() {})
	}
	if got := e.Pending(); got != len(deltas) {
		t.Fatalf("Pending() = %d, want %d", got, len(deltas))
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("populated: %v", err)
	}
	e.Run()
	if e.Fired() != uint64(len(deltas)) {
		t.Fatalf("Fired() = %d, want %d", e.Fired(), len(deltas))
	}
}

// TestWheelOverflowMassCancel is the capacity gate for the overflow chain:
// with over a million events parked beyond the horizon, canceling large
// swaths of them — repeatedly including the current minimum, whose tombstone
// the next query must purge — must keep the earliest-deadline query
// truthful, keep the occupancy counter exact, and leave the survivors firing
// in timestamp order.
func TestWheelOverflowMassCancel(t *testing.T) {
	const n = 1 << 20 // ~1.05M pending events
	e := NewEngine()
	w := e.q.(*wheel)

	// Park n events beyond the horizon with a deterministic shuffled order of
	// deadlines so the overflow chain is thoroughly unsorted. With the wheel
	// levels empty, nextTime answers from a scan of the overflow chain.
	handles := make([]Handle, n)
	r := rand.New(rand.NewPCG(7, 9))
	perm := r.Perm(n)
	for _, p := range perm {
		handles[p] = e.At(wheelHorizon+Time(2*p+2), func() {})
	}
	if got := e.Pending(); got != n {
		t.Fatalf("Pending() = %d, want %d", got, n)
	}
	st := e.SchedStats()
	if st.Overflow != n {
		t.Fatalf("Overflow = %d, want %d", st.Overflow, n)
	}
	if st.PeakPending != n || st.PeakOverflow != n {
		t.Fatalf("peaks = (%d, %d), want (%d, %d)", st.PeakPending, st.PeakOverflow, n, n)
	}

	// Cancel the current minimum 64 times in a row: each query must purge
	// the tombstone instead of reporting a dead deadline.
	for i := 0; i < 64; i++ {
		handles[i].Cancel()
		if min, ok := w.nextTime(); !ok || min != wheelHorizon+Time(2*(i+1)+2) {
			t.Fatalf("after canceling minimum %d: nextTime = (%v, %v), want %v",
				i, min, ok, wheelHorizon+Time(2*(i+1)+2))
		}
	}
	// Mass-cancel three quarters of the remainder (every index not divisible
	// by four), shuffled, without querying in between: O(1) per cancel.
	canceled := 64
	for _, p := range perm {
		if p >= 64 && p%4 != 0 {
			handles[p].Cancel()
			canceled++
		}
	}
	if st := e.SchedStats(); st.Overflow != n-canceled {
		t.Fatalf("Overflow after mass cancel = %d, want %d", st.Overflow, n-canceled)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after mass cancellation: %v", err)
	}
	if min, ok := w.nextTime(); ok && min < wheelHorizon {
		t.Fatalf("nextTime = %v, below the horizon", min)
	}

	// The survivors must fire in timestamp order, and all of them must fire.
	var last Time
	fired := 0
	for {
		idx := e.q.popDue(MaxTime)
		if idx == nilIdx {
			break
		}
		ev := e.slab.at(idx)
		if ev.time < last {
			t.Fatalf("event at %v popped after %v", ev.time, last)
		}
		last = ev.time
		e.now = ev.time
		ev.flags |= evFired
		e.release(ev, idx)
		fired++
	}
	want := n - canceled
	if fired != want {
		t.Fatalf("fired %d events, want %d", fired, want)
	}
	if st := e.SchedStats(); st.Pending != 0 || st.Overflow != 0 {
		t.Fatalf("post-drain stats = %+v, want empty", st)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

// wheelCapacity is the entry storage the wheel retains: every block it has
// made, plus the run's two buffers.
func wheelCapacity(w *wheel) int { return w.blocks*blockEntries + cap(w.run) + cap(w.spare) }

// TestWheelStorageFollowsLiveSet schedules 2^20 events in waves, canceling
// most of each wave before the next, so the live set stays small while the
// cancellations pile up. Tombstone compaction must keep the retained entry
// capacity within twice the peak pending events plus one block per slot
// chain — without it every canceled entry would stay resident.
func TestWheelStorageFollowsLiveSet(t *testing.T) {
	e := NewEngine()
	w := e.q.(*wheel)
	r := rand.New(rand.NewPCG(3, 5))
	const waves, perWave = 1 << 8, 1 << 12
	var live []Handle
	for wave := 0; wave < waves; wave++ {
		for i := 0; i < perWave; i++ {
			d := Duration(1)<<(tickBits+r.IntN(24)) + Duration(r.Uint64N(1<<tickBits))
			live = append(live, e.After(d, func() {}))
		}
		// Cancel all but one in 64, in random order.
		r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		keep := live[:0]
		for i, h := range live {
			if i%64 == 0 {
				keep = append(keep, h)
			} else {
				h.Cancel()
			}
		}
		live = keep
		e.RunUntil(e.Now() + Time(r.Uint64N(1<<20)))
	}
	st := e.SchedStats()
	bound := 2*st.PeakPending + blockEntries*len(w.slots)
	if got := wheelCapacity(w); got > bound {
		t.Fatalf("retained entry capacity %d after %d schedules, bound 2×%d peak pending + %d = %d",
			got, waves*perWave, st.PeakPending, blockEntries*len(w.slots), bound)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

// TestWheelOverflowCountExact checks SchedStats.Overflow against a count of
// the pending events beyond the horizon of the wheel clock, through
// schedules, cancels (which leave tombstones in the overflow chain) and
// the horizon crossing that migrates the chain into the wheel.
func TestWheelOverflowCountExact(t *testing.T) {
	e := NewEngine()
	w := e.q.(*wheel)
	r := rand.New(rand.NewPCG(8, 1))
	var hs []Handle
	check := func(when string) {
		t.Helper()
		want := 0
		for _, h := range hs {
			if h.Pending() && uint64(h.Time()^w.cur)>>wheelHorizonBits != 0 {
				want++
			}
		}
		if got := e.SchedStats().Overflow; got != want {
			t.Fatalf("%s: Overflow = %d, want %d", when, got, want)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for i := 0; i < 4000; i++ {
		hs = append(hs, e.At(Time(r.Uint64N(3*uint64(wheelHorizon))), func() {}))
	}
	check("scheduled")
	for i := 0; i < len(hs); i += 3 {
		hs[i].Cancel()
	}
	check("canceled")
	for _, at := range []Time{wheelHorizon / 2, wheelHorizon + 1, 2*wheelHorizon + 5} {
		e.RunUntil(at)
		check(fmt.Sprintf("ran to %v", at))
		for i := 1; i < len(hs); i += 5 {
			hs[i].Cancel()
		}
		check(fmt.Sprintf("canceled at %v", at))
	}
	e.Run()
	check("drained")
}

// TestNextEventTimeSkipsCanceled cancels the earliest pending event over and
// over — on every level, in the run and in overflow — and requires
// NextEventTime to report the earliest live deadline every time, as the
// heap does.
func TestNextEventTimeSkipsCanceled(t *testing.T) {
	wheelEng, heapEng := NewEngineWith(SchedWheel), NewEngineWith(SchedHeap)
	r := rand.New(rand.NewPCG(4, 4))
	var wh, hh []Handle
	for round := 0; round < 300; round++ {
		for i := 0; i < 16; i++ {
			d := Duration(r.Uint64N(1 << (1 + r.IntN(50))))
			wh = append(wh, wheelEng.After(d, func() {}))
			hh = append(hh, heapEng.After(d, func() {}))
		}
		// Cancel the earliest pending events, ties broken by schedule order.
		for k := 0; k < 5; k++ {
			best := -1
			for i, h := range wh {
				if h.Pending() && (best < 0 || h.Time() < wh[best].Time()) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			canceled := wh[best].Time()
			wh[best].Cancel()
			hh[best].Cancel()
			wt, wok := wheelEng.NextEventTime()
			ht, hok := heapEng.NextEventTime()
			if wt != ht || wok != hok {
				t.Fatalf("round %d: NextEventTime = (%v, %v), heap says (%v, %v)", round, wt, wok, ht, hok)
			}
			if wok && wt < canceled {
				t.Fatalf("round %d: NextEventTime %v precedes the canceled minimum %v", round, wt, canceled)
			}
		}
		step := Time(r.Uint64N(1 << (1 + r.IntN(40))))
		wheelEng.RunUntil(wheelEng.Now() + step)
		heapEng.RunUntil(heapEng.Now() + step)
		if err := wheelEng.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
