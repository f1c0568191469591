package sim

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	tests := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second, "1.000s"},
		{-2 * Microsecond, "-2.000us"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("Duration(%d).String() = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestRateString(t *testing.T) {
	tests := []struct {
		r    Rate
		want string
	}{
		{100 * Gbps, "100Gbps"},
		{10 * Mbps, "10Mbps"},
		{5 * Kbps, "5Kbps"},
		{999, "999bps"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("Rate(%d).String() = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestTxTime(t *testing.T) {
	tests := []struct {
		bytes int
		rate  Rate
		want  Duration
	}{
		{1500, 100 * Gbps, 120 * Nanosecond},
		{64, 100 * Gbps, 5120 * Picosecond},
		{1500, 10 * Gbps, 1200 * Nanosecond},
		{1538, 10 * Gbps, Duration(1538 * 8 * 100)}, // 1230.4ns
		{9000, 100 * Gbps, 720 * Nanosecond},
	}
	for _, tt := range tests {
		if got := TxTime(tt.bytes, tt.rate); got != tt.want {
			t.Errorf("TxTime(%d, %v) = %v, want %v", tt.bytes, tt.rate, got, tt.want)
		}
	}
}

func TestTxTimeRoundsUp(t *testing.T) {
	// 1 byte at 3 bps: 8/3 s = 2.666..s must round up.
	got := TxTime(1, 3)
	want := Duration(8*int64(Second)/3 + 1)
	if got != want {
		t.Fatalf("TxTime(1, 3bps) = %d, want %d", got, want)
	}
}

func TestTxTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TxTime(1500, 0) did not panic")
		}
	}()
	TxTime(1500, 0)
}

func TestBytesIn(t *testing.T) {
	if got := BytesIn(Duration(Microsecond), 100*Gbps); got != 12500 {
		t.Errorf("BytesIn(1us, 100Gbps) = %d, want 12500", got)
	}
	if got := BytesIn(0, 100*Gbps); got != 0 {
		t.Errorf("BytesIn(0, 100Gbps) = %d, want 0", got)
	}
	if got := BytesIn(-5, 100*Gbps); got != 0 {
		t.Errorf("BytesIn(-5, ...) = %d, want 0", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v after run, want 30", e.Now())
	}
}

func TestEngineTieBreakIsScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events fired out of schedule order: %v", order)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits int
	var rec func()
	rec = func() {
		hits++
		if hits < 5 {
			e.After(10, rec)
		}
	}
	e.After(0, rec)
	end := e.Run()
	if hits != 5 {
		t.Fatalf("hits = %d, want 5", hits)
	}
	if end != 40 {
		t.Fatalf("end = %v, want 40", end)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

// Cancel takes an event out of the pending set at once: Pending drops the
// moment Cancel returns — whatever tombstone the wheel keeps is invisible —
// and a double cancel changes nothing.
func TestEnginePendingDropsOnCancel(t *testing.T) {
	e := NewEngine()
	evA := e.At(10, func() {})
	evB := e.At(20, func() {})
	e.At(30, func() {})
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d, want 3", got)
	}
	evB.Cancel()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() after cancel = %d, want 2 (removal is immediate)", got)
	}
	if !evB.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	evB.Cancel() // double cancel must not double-count
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() after double cancel = %d, want 2", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
	e.RunUntil(25) // fires A; B is long gone
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() after RunUntil(25) = %d, want 1", got)
	}
	evA.Cancel() // cancel after fire is a no-op for the count
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() after canceling fired event = %d, want 1", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() after drain = %d, want 0", got)
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", e.Fired())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, ts := range []Time{5, 15, 25} {
		ts := ts
		e.At(ts, func() { fired = append(fired, ts) })
	}
	now := e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline 20, want 2", len(fired))
	}
	if now != 20 {
		t.Fatalf("RunUntil returned %v, want 20", now)
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Fatalf("count = %d after Stop, want 4", count)
	}
	if e.Pending() == 0 {
		t.Fatal("Stop drained the queue; events should remain pending")
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

// TestReservedKeyFiresInPlace schedules under a reserved key late — after
// same-deadline events were queued behind it — and expects it to fire
// exactly where an event scheduled at reservation time would have, under
// both schedulers.
func TestReservedKeyFiresInPlace(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedWheel} {
		e := NewEngineWith(kind)
		var got []string
		rec := func(s string) func() { return func() { got = append(got, s) } }
		e.At(100, rec("before"))
		k := e.Reserve(100)
		e.At(100, rec("after"))
		e.At(50, func() {
			if !e.KeyPending(k) {
				t.Errorf("%s: key at 100 passed at 50", kind)
			}
			e.AtKey(k, handlerFunc(rec("reserved")))
		})
		e.Run()
		if want := []string{"before", "reserved", "after"}; !slices.Equal(got, want) {
			t.Errorf("%s: fired %v, want %v", kind, got, want)
		}
	}
}

type handlerFunc func()

func (f handlerFunc) Fire() { f() }

// TestKeyPending walks a reserved key through the clock: pending before its
// deadline and at it until the event keyed just before it has fired, passed
// after; a RunUntil that fires everything due by its deadline passes every
// key at the deadline, a stopped one only those already dispatched.
func TestKeyPending(t *testing.T) {
	e := NewEngine()
	var atFirst, atSecond bool
	e.At(10, func() {})
	e.At(20, func() {})
	k := e.Reserve(20) // keyed after the event at 20, before the one below
	e.At(20, func() { atSecond = e.KeyPending(k) })
	e.At(20, func() {})
	e.At(10, func() { atFirst = e.KeyPending(k) })
	e.RunUntil(15)
	if !atFirst || !e.KeyPending(k) {
		t.Fatalf("key at 20 passed by 15 (during run %v, after %v)", atFirst, e.KeyPending(k))
	}
	e.RunUntil(20)
	if atSecond || e.KeyPending(k) {
		t.Fatalf("key at 20 still pending after its deadline ran (during run %v, after %v)", atSecond, e.KeyPending(k))
	}

	e = NewEngine()
	k = e.Reserve(30)
	e.At(30, func() { e.Stop() })
	k2 := e.Reserve(30)
	e.At(30, func() {})
	e.Run()
	if e.KeyPending(k) || !e.KeyPending(k2) {
		t.Fatalf("after Stop at the event between two keys: first pending %v, second pending %v", e.KeyPending(k), e.KeyPending(k2))
	}
}

func TestAtKeyPanicsOnPassedOrUnreservedKey(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	e := NewEngine()
	k := e.Reserve(10)
	e.RunUntil(10)
	mustPanic("AtKey under a passed key", func() { e.AtKey(k, handlerFunc(func() {})) })
	mustPanic("AtKey under an unreserved key", func() { e.AtKey(Key{Time: 20, SchedAt: 10, Seq: 5}, handlerFunc(func() {})) })
	mustPanic("Reserve in the past", func() { e.Reserve(5) })
}

// Property: for any set of timestamps, the engine fires events in
// non-decreasing time order and the fired count matches the scheduled count.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(stamps []uint32) bool {
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			ts := Time(s)
			e.At(ts, func() { fired = append(fired, ts) })
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(7, 1), NewRand(7, 1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed sources diverged")
		}
	}
	c := NewRand(7, 2)
	same := true
	a = NewRand(7, 1)
	for i := 0; i < 16; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different streams produced identical output")
	}
}

func TestExpMean(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	const mean = 10 * Microsecond
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(Exp(r, mean))
	}
	got := sum / n
	if got < 0.97*float64(mean) || got > 1.03*float64(mean) {
		t.Fatalf("empirical mean %v, want within 3%% of %v", Duration(got), mean)
	}
	if Exp(r, 0) != 0 {
		t.Fatal("Exp with zero mean should return 0")
	}
}

func TestCheckInvariantsCleanEngine(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedWheel} {
		e := NewEngineWith(kind)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: fresh engine: %v", kind, err)
		}
		for i := 0; i < 10; i++ {
			e.After(Duration(i)*Microsecond, func() {})
		}
		ev := e.After(20*Microsecond, func() {})
		ev.Cancel()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: with pending and canceled events: %v", kind, err)
		}
		e.RunUntil(Time(5 * Microsecond))
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: mid-run: %v", kind, err)
		}
		e.Run()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: drained: %v", kind, err)
		}
	}
}

func TestCheckInvariantsDetectsHeapCorruption(t *testing.T) {
	e := NewEngineWith(SchedHeap)
	for i := 0; i < 4; i++ {
		e.After(Duration(i+1)*Microsecond, func() {})
	}
	q := e.q.(*heapQueue)

	// A live event behind the clock.
	e.now = Time(10 * Microsecond)
	if err := e.CheckInvariants(); err == nil {
		t.Fatal("stale live event not detected")
	}
	e.now = 0

	// Broken heap index bookkeeping.
	root := q.sl.at(q.h[0])
	root.index = 2
	if err := e.CheckInvariants(); err == nil {
		t.Fatal("index corruption not detected")
	}
	root.index = 0

	// Heap order violation.
	second := q.sl.at(q.h[1])
	root.time, second.time = second.time, root.time
	if q.less(1, 0) {
		if err := e.CheckInvariants(); err == nil {
			t.Fatal("heap order violation not detected")
		}
	}
}
