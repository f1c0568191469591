package netem

import (
	"fmt"
	"io"
	"sort"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// TraceEvent is one observable packet event.
type TraceEvent uint8

// Trace event kinds.
const (
	TraceEnqueue TraceEvent = iota // accepted into a port queue
	TraceDrop                      // discarded by a port queue
	TraceTrim                      // payload cut by an NDP queue
	TraceDeliver                   // handed to a host endpoint
)

var traceEventNames = [...]string{"ENQ", "DROP", "TRIM", "DELIVER"}

// String names the event.
func (e TraceEvent) String() string {
	if int(e) < len(traceEventNames) {
		return traceEventNames[e]
	}
	return "?"
}

// Tracer receives packet events from instrumented ports and hosts. Keep
// implementations cheap: the hot path calls them per packet.
type Tracer interface {
	Trace(now sim.Time, ev TraceEvent, where string, p *Packet)
}

// WriterTracer formats events as one line each, suitable for debugging and
// for diffing deterministic runs. Filter, when non-nil, limits output to
// packets it returns true for.
type WriterTracer struct {
	W      io.Writer
	Filter func(p *Packet) bool
	Events uint64
}

// Trace implements Tracer.
func (t *WriterTracer) Trace(now sim.Time, ev TraceEvent, where string, p *Packet) {
	if t.Filter != nil && !t.Filter(p) {
		return
	}
	t.Events++
	fmt.Fprintf(t.W, traceLineFormat, now, ev, where, p)
}

// traceLineFormat is the one-line rendering of a trace event shared by
// WriterTracer and TraceMerger.
const traceLineFormat = "%-14v %-7s %-18s %v\n"

// TraceMerger is packet tracing for a sharded run: each shard gets its own
// tracer, which buffers its lines instead of writing them, and Flush writes
// the buffered lines in (time, shard) order. A shard's tracer is only called
// from that shard's goroutine; Flush runs at a window barrier, with every
// worker parked, when every line still to come is later than every line
// buffered — so the output is the sequential run's trace up to the order of
// same-instant lines on different shards.
type TraceMerger struct {
	w      io.Writer
	shards []*lineBuffer
	merged []bufferedLine
	out    []byte
}

// lineBuffer is one shard's tracer.
type lineBuffer struct {
	filter func(p *Packet) bool
	lines  []bufferedLine
}

type bufferedLine struct {
	at   sim.Time
	text string
}

// NewTraceMerger returns a merger with one buffered tracer per shard, each
// keeping the packets filter accepts (nil keeps every packet).
func NewTraceMerger(w io.Writer, shards int, filter func(p *Packet) bool) *TraceMerger {
	m := &TraceMerger{w: w, shards: make([]*lineBuffer, shards)}
	for i := range m.shards {
		m.shards[i] = &lineBuffer{filter: filter}
	}
	return m
}

// Tracer returns shard i's tracer.
func (m *TraceMerger) Tracer(i int) Tracer { return m.shards[i] }

// Trace implements Tracer.
func (b *lineBuffer) Trace(now sim.Time, ev TraceEvent, where string, p *Packet) {
	if b.filter == nil || b.filter(p) {
		b.lines = append(b.lines, bufferedLine{now, fmt.Sprintf(traceLineFormat, now, ev, where, p)})
	}
}

// Flush writes every buffered line to the writer in one Write, ordered by time and
// then by shard (a stable sort keeps each shard's own dispatch order), and
// empties the buffers. Like WriterTracer it drops write errors: a trace is
// a debugging aid and never changes what a run reports.
func (m *TraceMerger) Flush() {
	m.merged = m.merged[:0]
	for _, b := range m.shards {
		m.merged = append(m.merged, b.lines...)
		b.lines = b.lines[:0]
	}
	if len(m.merged) == 0 {
		return
	}
	sort.SliceStable(m.merged, func(i, j int) bool { return m.merged[i].at < m.merged[j].at })
	m.out = m.out[:0]
	for _, l := range m.merged {
		m.out = append(m.out, l.text...)
	}
	_, _ = m.w.Write(m.out)
}

// CountingTracer tallies events by kind and packet type; a cheap way to
// assert aggregate behaviour in tests.
type CountingTracer struct {
	Counts map[TraceEvent]map[PacketType]uint64
}

// NewCountingTracer returns an empty counter.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{Counts: make(map[TraceEvent]map[PacketType]uint64)}
}

// Trace implements Tracer.
func (t *CountingTracer) Trace(_ sim.Time, ev TraceEvent, _ string, p *Packet) {
	m := t.Counts[ev]
	if m == nil {
		m = make(map[PacketType]uint64)
		t.Counts[ev] = m
	}
	m[p.Type]++
}

// Total returns the count for one event/type pair.
func (t *CountingTracer) Total(ev TraceEvent, typ PacketType) uint64 {
	return t.Counts[ev][typ]
}

// tracedQdisc wraps a discipline with enqueue/drop/trim tracing.
type tracedQdisc struct {
	Qdisc
	tracer Tracer
	eng    *sim.Engine
	where  string
}

// Enqueue implements Qdisc.
func (q *tracedQdisc) Enqueue(p *Packet, now sim.Time) bool {
	wasTrimmed := p.Trimmed
	ok := q.Qdisc.Enqueue(p, now)
	switch {
	case !ok:
		// The inner drop hook already fired; trace the drop too.
		q.tracer.Trace(now, TraceDrop, q.where, p)
	case !wasTrimmed && p.Trimmed:
		q.tracer.Trace(now, TraceTrim, q.where, p)
	default:
		q.tracer.Trace(now, TraceEnqueue, q.where, p)
	}
	return ok
}

// InstrumentPorts wraps every given port's qdisc so the tracer observes all
// enqueues, drops and trims. Call before traffic starts.
func InstrumentPorts(ports []*Port, tr Tracer) {
	for _, pt := range ports {
		pt.Q = &tracedQdisc{Qdisc: pt.Q, tracer: tr, eng: pt.Eng, where: pt.Label}
	}
}

// InstrumentHosts wraps every host endpoint so the tracer observes packet
// deliveries. Call after the protocol has attached its endpoints.
func InstrumentHosts(hosts []*Host, tr Tracer) {
	for _, h := range hosts {
		h.EP = &tracedEndpoint{inner: h.EP, tracer: tr, host: h}
	}
}

type tracedEndpoint struct {
	inner  Endpoint
	tracer Tracer
	host   *Host
}

// Receive implements Endpoint.
func (t *tracedEndpoint) Receive(p *Packet) {
	t.tracer.Trace(t.host.Eng.Now(), TraceDeliver, fmt.Sprintf("host%d", t.host.ID), p)
	if t.inner != nil {
		t.inner.Receive(p)
	}
}
