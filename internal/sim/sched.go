package sim

import "fmt"

// SchedulerKind selects the event-queue implementation backing an Engine.
// Both schedulers fire events in identical (time, schedAt, seq) order — the
// golden digest test and FuzzSchedulerEquivalence prove it — so the choice is
// purely a performance knob with the heap retained as the reference
// implementation.
type SchedulerKind string

const (
	// SchedWheel is the hierarchical timing wheel: O(1) schedule, O(1)
	// cancel by tombstone, amortized O(levels) dispatch. The default.
	SchedWheel SchedulerKind = "wheel"

	// SchedHeap is the container/heap-equivalent reference implementation:
	// O(log n) schedule, removal and dispatch.
	SchedHeap SchedulerKind = "heap"
)

// DefaultScheduler is what NewEngine uses.
const DefaultScheduler = SchedWheel

// ParseScheduler maps a -sched flag value to a SchedulerKind. The empty
// string selects the default; anything else must name a known scheduler.
func ParseScheduler(s string) (SchedulerKind, error) {
	switch SchedulerKind(s) {
	case "":
		return DefaultScheduler, nil
	case SchedWheel:
		return SchedWheel, nil
	case SchedHeap:
		return SchedHeap, nil
	default:
		return "", fmt.Errorf("sim: unknown scheduler %q (want %q or %q)", s, SchedWheel, SchedHeap)
	}
}

// SchedStats is a snapshot of an event queue's occupancy: how many events
// are pending now, the high-water marks over the engine's lifetime, and —
// for the timing wheel — how many events sit in the beyond-horizon overflow
// chain. The peaks are maintained inline by the schedulers (a compare and a
// conditional store on the schedule path), so reading them costs nothing
// during a run; the scale sweep reports them per (hosts, load) point.
type SchedStats struct {
	Pending      int // events waiting to fire right now
	PeakPending  int // largest Pending ever observed
	Overflow     int // wheel only: events parked beyond the 2^48 ps horizon
	PeakOverflow int // wheel only: largest Overflow ever observed
}

// scheduler is the event-queue contract the Engine drives. Exactly the events
// that were scheduled and not removed are pending, and only they count
// towards size; a canceled event never fires, though the wheel may keep a
// tombstone entry for it until that surfaces. Events travel as
// (pointer, slab index) pairs: the pointer spares re-derefencing a slot the
// caller already has in hand, the index is what the queues store.
type scheduler interface {
	// schedule inserts a pending event. The engine guarantees ev.time is not
	// in the past and ev.seq is strictly larger than every earlier event's.
	schedule(ev *Event, idx uint32)

	// remove takes a pending event out of the pending set before it fires.
	// The engine marks it canceled first and recycles its slot right after.
	remove(ev *Event, idx uint32)

	// popDue removes and returns the slab index of the earliest pending
	// event by (time, schedAt, seq) if its time is ≤ limit, or nilIdx
	// (leaving the queue untouched in any observable way) when the queue is
	// empty or the earliest event is later.
	popDue(limit Time) uint32

	// next returns the earliest pending deadline without mutating the queue,
	// or false when nothing is pending. This is what the sharded runner uses
	// to compute the global lower bound of the next synchronization window.
	next() (Time, bool)

	// size is the number of pending events.
	size() int

	// kind names the implementation.
	kind() SchedulerKind

	// stats snapshots the queue's occupancy and lifetime high-water marks.
	stats() SchedStats

	// check validates the implementation's structural invariants: membership
	// bookkeeping, ordering, and that no pending event is behind now.
	check(now Time) error
}
