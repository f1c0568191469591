package sim

import (
	"reflect"
	"testing"
)

// schedTrace is the observable history of one scheduler interpreting an op
// program: every firing as (label, time, firedSoFar) plus Pending, Now and
// NextEventTime after every op. Two schedulers are equivalent iff their
// traces are identical.
type schedTrace struct {
	Fires    [][3]int64
	Pendings []int
	Nows     []Time
	Nexts    []Time // NextEventTime, or -1 when nothing is pending
}

// fuzzFire records its firing and, when chain is set, schedules a follow-up
// inside the current tick with a backdated stamp — an insertion into the
// wheel's run while it is being served.
type fuzzFire struct {
	tr    *schedTrace
	e     *Engine
	lbl   int64
	chain byte
}

func (f *fuzzFire) Fire() {
	f.tr.Fires = append(f.tr.Fires, [3]int64{f.lbl, int64(f.e.Now()), int64(f.e.Fired())})
	if f.chain != 0 {
		now := f.e.Now()
		back := min(Time(f.chain)<<4, now)
		f.e.AtHandlerFrom(now+Time(f.chain%16), now-back, &fuzzFire{tr: f.tr, e: f.e, lbl: -f.lbl})
	}
}

// fuzzTrigger fires just ahead of a reserved key, at its deadline, and
// schedules the key from there: at the current instant, ahead of every
// same-instant event queued after the reservation — what a port's kick does
// when a packet lands on a busy wire at the instant it frees up.
type fuzzTrigger struct {
	f *fuzzFire
	k Key
}

func (g *fuzzTrigger) Fire() {
	g.f.Fire()
	if g.f.e.KeyPending(g.k) {
		g.f.e.AtKey(g.k, &fuzzFire{tr: g.f.tr, e: g.f.e, lbl: -g.f.lbl})
	}
}

// runSchedProgram interprets prog on an engine with the given scheduler.
// Opcodes (byte % 13), with operands drawn from following bytes:
//
//	0: schedule at now+delta (delta exponential in one byte, so every wheel
//	   level and the overflow chain are reachable)
//	1: cancel the k-th live handle
//	2: RunUntil(now+delta)
//	3: reset the shared rearmable timer to now+delta
//	4: stop the shared timer
//	5: schedule at now (zero delay)
//	6: AtHandlerFrom at now plus less than a tick, stamped up to 4 µs
//	   before now: a backdated delivery, often into the current tick
//	7: schedule at a fabric delta, 2^12–2^24 ps ahead (level-0/1 ticks)
//	8: cancel the k-th live handle due in now's tick (a run resident)
//	9: schedule at now+delta an event that, firing, schedules a backdated
//	   follow-up inside its own tick
//	10: reserve a key at now+delta without scheduling anything
//	11: schedule under the k-th reserved key if it is still pending (often
//	    after intervening schedules, sometimes into the current tick), else
//	    forget it
//	12: schedule at now+delta an event that, firing, schedules under a key
//	    reserved right after it for the same deadline
func runSchedProgram(kind SchedulerKind, prog []byte) schedTrace {
	e := NewEngineWith(kind)
	var tr schedTrace
	var handles []Handle
	var reserved []Key
	label := int64(0)

	var tm Timer
	tm.Init(e, func() { tr.Fires = append(tr.Fires, [3]int64{-1 << 32, int64(e.Now()), int64(e.Fired())}) })

	fire := func(chain byte) *fuzzFire {
		label++
		return &fuzzFire{tr: &tr, e: e, lbl: label, chain: chain}
	}
	delta := func(b byte) Duration {
		// Exponential spread: shifts 0..51 cover every level plus overflow.
		return (Duration(1) << (b % 52)) + Duration(b%7)
	}
	cancel := func(k int) {
		handles[k].Cancel()
		handles = append(handles[:k], handles[k+1:]...)
	}

	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		switch op % 13 {
		case 0:
			handles = append(handles, e.AtHandler(e.Now().Add(delta(arg)), fire(0)))
		case 1:
			if len(handles) > 0 {
				cancel(int(arg) % len(handles))
			}
		case 2:
			e.RunUntil(e.Now().Add(delta(arg)))
		case 3:
			tm.Reset(delta(arg))
		case 4:
			tm.Stop()
		case 5:
			handles = append(handles, e.AtHandler(e.Now(), fire(0)))
		case 6:
			now := e.Now()
			back := min(Time(arg)<<14, now)
			handles = append(handles, e.AtHandlerFrom(now+Time(arg)<<4, now-back, fire(0)))
		case 7:
			d := Duration(1)<<(tickBits+arg%13) + Duration(arg)*977
			handles = append(handles, e.AtHandler(e.Now().Add(d), fire(0)))
		case 8:
			var due []int
			for k, h := range handles {
				if h.Pending() && h.Time()>>tickBits == e.Now()>>tickBits {
					due = append(due, k)
				}
			}
			if len(due) > 0 {
				cancel(due[int(arg)%len(due)])
			}
		case 9:
			handles = append(handles, e.AtHandler(e.Now().Add(delta(arg%24)), fire(arg|1)))
		case 10:
			reserved = append(reserved, e.Reserve(e.Now().Add(delta(arg%24))))
		case 11:
			if len(reserved) > 0 {
				k := int(arg) % len(reserved)
				if e.KeyPending(reserved[k]) {
					handles = append(handles, e.AtKey(reserved[k], fire(0)))
				}
				reserved = append(reserved[:k], reserved[k+1:]...)
			}
		case 12:
			t := e.Now().Add(delta(arg % 24))
			g := &fuzzTrigger{f: fire(0)}
			handles = append(handles, e.AtHandler(t, g))
			g.k = e.Reserve(t)
		}
		tr.Pendings = append(tr.Pendings, e.Pending())
		tr.Nows = append(tr.Nows, e.Now())
		next, ok := e.NextEventTime()
		if !ok {
			next = -1
		}
		tr.Nexts = append(tr.Nexts, next)
	}
	e.RunUntil(e.Now() + (1 << 53)) // drain everything, overflow included
	tr.Pendings = append(tr.Pendings, e.Pending())
	tr.Nows = append(tr.Nows, e.Now())
	return tr
}

// schedSeeds is the checked-in seed corpus of FuzzSchedulerEquivalence, run
// as a plain test by TestSchedulerEquivalenceSeeds.
var schedSeeds = [][]byte{
	{0, 10, 0, 10, 2, 20},                      // same-time pair, then run
	{0, 1, 0, 48, 1, 0, 2, 50},                 // overflow + cancel
	{3, 9, 2, 3, 3, 12, 2, 40, 4, 0},           // timer rearm across levels
	{5, 0, 5, 0, 2, 1, 0, 30, 1, 1, 2, 51},     // zero-delay batch
	{0, 12, 0, 24, 0, 36, 0, 51, 2, 13, 2, 37}, // one event per tier
	{0, 6, 1, 0, 0, 6, 1, 0, 0, 6, 2, 8, 0, 6}, // churny cancel/replace
	// Backdated deliveries into the current tick, around same-time events.
	{0, 30, 2, 30, 5, 0, 5, 0, 6, 0, 6, 3, 6, 200, 2, 13},
	// Fabric deltas: level-0 and level-1 ticks, cascades, then a drain.
	{7, 0, 7, 5, 7, 12, 7, 77, 7, 140, 7, 250, 2, 22, 7, 9, 2, 25},
	// Cancel residents of the current run, its head among them.
	{5, 0, 6, 1, 6, 2, 5, 0, 8, 0, 8, 1, 2, 1, 7, 3, 8, 0},
	// Handlers that insert backdated follow-ups while the run is served.
	{9, 10, 9, 10, 9, 200, 6, 4, 2, 14, 9, 3, 5, 0, 8, 1, 2, 20},
	// A reserved key scheduled into the current tick, ahead of a later
	// same-deadline event already in the run.
	{5, 0, 10, 3, 0, 3, 5, 0, 11, 0, 2, 5},
	// Reserved keys scheduled at the current instant by the event keyed just
	// before them, ahead of same-instant events queued after the reservation;
	// one deadline reached inside a served run, one across a cascade.
	{12, 20, 0, 20, 5, 0, 0, 20, 12, 4, 0, 4, 2, 4, 2, 21},
	// Reserved keys scheduled after intervening schedules, cancels and
	// advances — one still pending, one already passed and forgotten.
	{10, 21, 10, 2, 0, 21, 7, 3, 0, 12, 6, 2, 1, 1, 2, 10, 11, 1, 11, 0, 2, 31},
}

// FuzzSchedulerEquivalence replays random schedule/cancel/reset/advance
// programs on the heap and the wheel and requires identical firing sequences
// and identical Pending()/Now()/NextEventTime() after every step — the
// differential proof that the wheel is a drop-in replacement for the
// reference heap.
func FuzzSchedulerEquivalence(f *testing.F) {
	for _, s := range schedSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		heapTr := runSchedProgram(SchedHeap, prog)
		wheelTr := runSchedProgram(SchedWheel, prog)
		if !reflect.DeepEqual(heapTr.Fires, wheelTr.Fires) {
			t.Fatalf("firing sequences diverge:\nheap:  %v\nwheel: %v", heapTr.Fires, wheelTr.Fires)
		}
		if !reflect.DeepEqual(heapTr.Pendings, wheelTr.Pendings) {
			t.Fatalf("Pending() diverges:\nheap:  %v\nwheel: %v", heapTr.Pendings, wheelTr.Pendings)
		}
		if !reflect.DeepEqual(heapTr.Nows, wheelTr.Nows) {
			t.Fatalf("Now() diverges:\nheap:  %v\nwheel: %v", heapTr.Nows, wheelTr.Nows)
		}
		if !reflect.DeepEqual(heapTr.Nexts, wheelTr.Nexts) {
			t.Fatalf("NextEventTime() diverges:\nheap:  %v\nwheel: %v", heapTr.Nexts, wheelTr.Nexts)
		}
	})
}

// TestSchedulerEquivalenceSeeds runs the fuzz seed corpus as a plain test so
// the differential check is part of every `go test` run, not only -fuzz.
func TestSchedulerEquivalenceSeeds(t *testing.T) {
	seeds := append([][]byte(nil), schedSeeds...)
	// A deterministic pseudo-random program sweep on top of the hand seeds.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for round := 0; round < 100; round++ {
		prog := make([]byte, 64)
		for i := range prog {
			prog[i] = next()
		}
		seeds = append(seeds, prog)
	}
	for i, prog := range seeds {
		heapTr := runSchedProgram(SchedHeap, prog)
		wheelTr := runSchedProgram(SchedWheel, prog)
		if !reflect.DeepEqual(heapTr, wheelTr) {
			t.Fatalf("seed %d: schedulers diverge on %v\nheap:  %+v\nwheel: %+v", i, prog, heapTr, wheelTr)
		}
	}
}
