package netem

import (
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// DropReason classifies why a queueing discipline discarded a packet.
type DropReason uint8

// Drop reasons.
const (
	DropTailFull   DropReason = iota // buffer exhausted
	DropSelective                    // Aeolus selective dropping (unscheduled over threshold)
	DropCreditOver                   // ExpressPass credit queue overflow
	DropTrimFail                     // NDP control queue full, trimmed header lost
	DropImpairment                   // injected by the link-impairment layer (loss, blackhole, failed link)

	numDropReasons // sentinel: must stay last
)

// NumDropReasons is the number of distinct DropReason values; every
// by-reason counter array is sized from it.
const NumDropReasons = int(numDropReasons)

var dropReasonNames = [...]string{"tail", "selective", "credit", "trim-fail", "impair"}

// Compile-time guard: dropReasonNames must name every DropReason. Each line
// overflows uint (a compile error) if one side lags the other.
const (
	_ = uint(NumDropReasons - len(dropReasonNames))
	_ = uint(len(dropReasonNames) - NumDropReasons)
)

// String names the drop reason.
func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) {
		return dropReasonNames[r]
	}
	return "unknown"
}

// DropHook observes every packet a qdisc discards.
type DropHook func(p *Packet, reason DropReason)

// Backlog is an instantaneous queue occupancy measurement.
type Backlog struct {
	Packets int
	Bytes   int64
}

// Qdisc is a queueing discipline attached to an output port. Enqueue may
// accept, discard, or mutate (trim) the packet; Dequeue returns the next
// packet eligible for transmission, or nil if none is eligible right now.
// Shaped disciplines (the ExpressPass credit queue) may hold eligible packets
// until a future instant, which they advertise through NextWake.
//
// Backlog must count every packet the discipline holds, shaped ones
// included, and when Backlog().Packets == 0, Dequeue and NextWake must have
// no side effects. The port relies on both: a transmission that leaves
// Backlog at zero schedules no tx-done event, because that event's Dequeue
// and NextWake would find nothing and change nothing.
type Qdisc interface {
	// Enqueue offers p to the queue at the current instant. It returns true
	// if the packet was queued (possibly mutated), false if it was dropped.
	Enqueue(p *Packet, now sim.Time) bool

	// Dequeue removes and returns the next transmittable packet, or nil.
	Dequeue(now sim.Time) *Packet

	// NextWake returns the earliest future instant at which Dequeue may
	// return a packet even without further Enqueue calls, or sim.MaxTime if
	// no such instant exists. Unshaped disciplines always return MaxTime.
	NextWake(now sim.Time) sim.Time

	// Backlog reports current occupancy (all internal queues combined).
	Backlog() Backlog

	// SetDropHook installs a drop observer (at most one; nil clears it).
	SetDropHook(h DropHook)
}

// DropCounter tallies drops by reason; embed it in qdisc implementations.
type DropCounter struct {
	hook  DropHook
	Drops [NumDropReasons]uint64 // indexed by DropReason
}

// SetDropHook installs the observer.
func (d *DropCounter) SetDropHook(h DropHook) { d.hook = h }

// Counter exposes the counter itself, so aggregation helpers (DropTotals)
// reach the tallies of any discipline embedding DropCounter — including ones
// defined outside this package — without a per-type case.
func (d *DropCounter) Counter() *DropCounter { return d }

func (d *DropCounter) drop(p *Packet, r DropReason) {
	d.Drops[r]++
	if d.hook != nil {
		d.hook(p, r)
	}
}

// Drop records a discarded packet. It is exported so qdisc implementations
// outside this package can reuse the counter/hook plumbing.
func (d *DropCounter) Drop(p *Packet, r DropReason) { d.drop(p, r) }

// TotalDrops sums drops across all reasons.
func (d *DropCounter) TotalDrops() uint64 {
	var s uint64
	for _, v := range d.Drops {
		s += v
	}
	return s
}

// fifo is the byte-accounted packet FIFO underlying most disciplines. The
// zero value is ready to use.
type fifo struct {
	pkts  []*Packet
	head  int
	bytes int64
}

func (f *fifo) push(p *Packet) {
	f.pkts = append(f.pkts, p)
	f.bytes += int64(p.WireSize)
}

func (f *fifo) pop() *Packet {
	if f.head == len(f.pkts) {
		return nil
	}
	p := f.pkts[f.head]
	f.pkts[f.head] = nil
	f.head++
	f.bytes -= int64(p.WireSize)
	if f.head == len(f.pkts) {
		f.pkts = f.pkts[:0]
		f.head = 0
	} else if f.head > 1024 && f.head*2 > len(f.pkts) {
		n := copy(f.pkts, f.pkts[f.head:])
		for i := n; i < len(f.pkts); i++ {
			f.pkts[i] = nil
		}
		f.pkts = f.pkts[:n]
		f.head = 0
	}
	return p
}

func (f *fifo) len() int    { return len(f.pkts) - f.head }
func (f *fifo) size() int64 { return f.bytes }
func (f *fifo) empty() bool { return f.head == len(f.pkts) }

// FIFO is a drop-tail queue with a byte limit. LimitBytes <= 0 means
// unlimited (useful for host NICs, which model an unbounded send buffer).
type FIFO struct {
	DropCounter
	LimitBytes int64
	q          fifo
	maxBytes   int64
}

// NewFIFO returns a drop-tail FIFO bounded to limitBytes.
func NewFIFO(limitBytes int64) *FIFO { return &FIFO{LimitBytes: limitBytes} }

// Enqueue implements Qdisc.
func (q *FIFO) Enqueue(p *Packet, _ sim.Time) bool {
	if q.LimitBytes > 0 && q.q.size()+int64(p.WireSize) > q.LimitBytes {
		q.drop(p, DropTailFull)
		return false
	}
	q.q.push(p)
	if q.q.size() > q.maxBytes {
		q.maxBytes = q.q.size()
	}
	return true
}

// Dequeue implements Qdisc.
func (q *FIFO) Dequeue(_ sim.Time) *Packet { return q.q.pop() }

// NextWake implements Qdisc.
func (q *FIFO) NextWake(_ sim.Time) sim.Time { return sim.MaxTime }

// Backlog implements Qdisc.
func (q *FIFO) Backlog() Backlog { return Backlog{q.q.len(), q.q.size()} }

// MaxBacklogBytes reports the high-water mark of queue occupancy.
func (q *FIFO) MaxBacklogBytes() int64 { return q.maxBytes }

// SelectiveDrop is the Aeolus switch queue (§3.2, §4.1): a single FIFO in
// which an arriving *unscheduled* packet is discarded whenever the backlog
// would exceed ThresholdBytes, while scheduled (and all control) packets are
// only bounded by the full buffer LimitBytes. This reproduces the RED/ECN
// re-interpretation on commodity switches: unscheduled packets are Non-ECT
// and get dropped at the RED threshold; scheduled packets are ECT(0) and
// would merely be marked, which endpoints ignore.
type SelectiveDrop struct {
	DropCounter
	ThresholdBytes int64 // selective dropping threshold (paper default 6 KB)
	LimitBytes     int64 // physical buffer bound for scheduled packets
	q              fifo
	maxBytes       int64
}

// NewSelectiveDrop returns a selective-dropping queue.
func NewSelectiveDrop(thresholdBytes, limitBytes int64) *SelectiveDrop {
	return &SelectiveDrop{ThresholdBytes: thresholdBytes, LimitBytes: limitBytes}
}

// Enqueue implements Qdisc.
func (q *SelectiveDrop) Enqueue(p *Packet, _ sim.Time) bool {
	protected := p.Scheduled || p.Type.IsControl()
	if !protected && q.q.size()+int64(p.WireSize) > q.ThresholdBytes {
		q.drop(p, DropSelective)
		return false
	}
	if q.LimitBytes > 0 && q.q.size()+int64(p.WireSize) > q.LimitBytes {
		q.drop(p, DropTailFull)
		return false
	}
	q.q.push(p)
	if q.q.size() > q.maxBytes {
		q.maxBytes = q.q.size()
	}
	return true
}

// Dequeue implements Qdisc.
func (q *SelectiveDrop) Dequeue(_ sim.Time) *Packet { return q.q.pop() }

// NextWake implements Qdisc.
func (q *SelectiveDrop) NextWake(_ sim.Time) sim.Time { return sim.MaxTime }

// Backlog implements Qdisc.
func (q *SelectiveDrop) Backlog() Backlog { return Backlog{q.q.len(), q.q.size()} }

// MaxBacklogBytes reports the high-water mark of queue occupancy.
func (q *SelectiveDrop) MaxBacklogBytes() int64 { return q.maxBytes }

// PrioQdisc is a strict-priority discipline with NumBands bands selected by
// Packet.Prio (band 0 served first) and a *shared* byte buffer across bands,
// matching the shared-buffer commodity switch of §5.5/Table 5: when the
// buffer is full, arrivals are tail-dropped regardless of priority, so a
// full low-priority queue can starve high-priority arrivals of buffer.
type PrioQdisc struct {
	DropCounter
	LimitBytes int64

	// SelectiveThresholdBytes, when positive, applies Aeolus selective
	// dropping at *port* granularity across all bands: an arriving
	// unscheduled packet is discarded once the port's total backlog would
	// exceed the threshold, while scheduled and control packets pass up to
	// LimitBytes. This is the paper's Homa+Aeolus switch configuration
	// (§5.1: "for Homa, we configure per-port ECN/RED"), which preserves
	// Homa's priority structure while capping unscheduled interference.
	SelectiveThresholdBytes int64

	bands    []fifo
	total    int64 // bytes across all bands
	packets  int   // packets across all bands
	maxBytes int64
}

// NewPrioQdisc returns a strict-priority qdisc with the given band count and
// shared byte limit.
func NewPrioQdisc(numBands int, limitBytes int64) *PrioQdisc {
	return &PrioQdisc{LimitBytes: limitBytes, bands: make([]fifo, numBands)}
}

// NewPrioSelective returns a strict-priority qdisc with per-port Aeolus
// selective dropping of unscheduled packets.
func NewPrioSelective(numBands int, thresholdBytes, limitBytes int64) *PrioQdisc {
	return &PrioQdisc{LimitBytes: limitBytes, SelectiveThresholdBytes: thresholdBytes,
		bands: make([]fifo, numBands)}
}

// Enqueue implements Qdisc.
func (q *PrioQdisc) Enqueue(p *Packet, _ sim.Time) bool {
	if q.SelectiveThresholdBytes > 0 && !p.Scheduled && !p.Type.IsControl() &&
		q.total+int64(p.WireSize) > q.SelectiveThresholdBytes {
		q.drop(p, DropSelective)
		return false
	}
	if q.LimitBytes > 0 && q.total+int64(p.WireSize) > q.LimitBytes {
		q.drop(p, DropTailFull)
		return false
	}
	b := int(p.Prio)
	if b >= len(q.bands) {
		b = len(q.bands) - 1
	}
	q.bands[b].push(p)
	q.total += int64(p.WireSize)
	q.packets++
	if q.total > q.maxBytes {
		q.maxBytes = q.total
	}
	return true
}

// Dequeue implements Qdisc.
func (q *PrioQdisc) Dequeue(_ sim.Time) *Packet {
	for i := range q.bands {
		if !q.bands[i].empty() {
			p := q.bands[i].pop()
			q.total -= int64(p.WireSize)
			q.packets--
			return p
		}
	}
	return nil
}

// NextWake implements Qdisc.
func (q *PrioQdisc) NextWake(_ sim.Time) sim.Time { return sim.MaxTime }

// Backlog implements Qdisc.
func (q *PrioQdisc) Backlog() Backlog { return Backlog{q.packets, q.total} }

// MaxBacklogBytes reports the high-water mark of total occupancy.
func (q *PrioQdisc) MaxBacklogBytes() int64 { return q.maxBytes }

// BandBacklog reports the occupancy of one priority band.
func (q *PrioQdisc) BandBacklog(band int) Backlog {
	return Backlog{q.bands[band].len(), q.bands[band].size()}
}
