package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// The traced run times the two layer boundaries a run crosses from outside:
// netem's Qdisc (every enqueue and dequeue on every port) and transport's
// Endpoint (every packet a host hands to its protocol). Decorators installed
// through Config.Observe open a span around each call. Spans nest — an
// endpoint's receive path enqueues its replies on the NIC — so each tracer
// keeps a stack and books a span's self time: its duration minus that of
// its children.
//
// A clock read costs about as much as a qdisc call, so only 1 in
// 2^sampleShift root spans is timed, together with every span nested in it;
// every call is counted. A layer's self time is estimated as its timed self
// time scaled by calls/timed.

const sampleShift = 4

const (
	layerNetem = iota
	layerTransport
	numLayers
)

// layerTracer accumulates one engine's spans. Every call it wraps runs on
// that engine's goroutine, so a sharded run gets one tracer per shard and
// merges them after the run.
type layerTracer struct {
	ports  int // ports wrapped
	depth  int
	timing bool    // the open root span is timed
	child  []int64 // per open timed span: time covered by its children
	roots  uint64

	calls, timed [numLayers]uint64
	selfNs       [numLayers]int64
	clockReads   uint64

	// Counts at the boundaries.
	crossPkts   uint64 // enqueues on cross-shard ports
	unschedPkts uint64 // unscheduled Data entering host NICs
	probePkts   uint64 // Aeolus probes entering host NICs
}

var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

func (t *layerTracer) begin(l int) int64 {
	t.calls[l]++
	if t.depth == 0 {
		t.roots++
		t.timing = t.roots&(1<<sampleShift-1) == 0
	}
	t.depth++
	if !t.timing {
		return 0
	}
	t.child = append(t.child, 0)
	t.clockReads++
	return nanotime()
}

func (t *layerTracer) end(l int, start int64) {
	t.depth--
	if !t.timing {
		return
	}
	d := nanotime() - start
	t.clockReads++
	n := len(t.child) - 1
	t.selfNs[l] += d - t.child[n]
	t.timed[l]++
	t.child = t.child[:n]
	if n > 0 {
		t.child[n-1] += d
	}
}

// merge adds o's totals into t.
func (t *layerTracer) merge(o *layerTracer) {
	for l := range numLayers {
		t.calls[l] += o.calls[l]
		t.timed[l] += o.timed[l]
		t.selfNs[l] += o.selfNs[l]
	}
	t.ports += o.ports
	t.clockReads += o.clockReads
	t.crossPkts += o.crossPkts
	t.unschedPkts += o.unschedPkts
	t.probePkts += o.probePkts
}

// selfSeconds estimates a layer's total self time from its timed sample.
func (t *layerTracer) selfSeconds(l int) float64 {
	if t.timed[l] == 0 {
		return 0
	}
	return float64(t.selfNs[l]) / 1e9 * float64(t.calls[l]) / float64(t.timed[l])
}

// timedQdisc decorates a port's discipline. The embedded Qdisc forwards
// NextWake, Backlog and SetDropHook unchanged.
type timedQdisc struct {
	netem.Qdisc
	t     *layerTracer
	nic   bool // the port is a host NIC
	cross bool // the port leads to another shard
}

func (q *timedQdisc) Enqueue(p *netem.Packet, now sim.Time) bool {
	if q.cross {
		q.t.crossPkts++
	}
	if q.nic {
		switch {
		case p.Type == netem.Data && !p.Scheduled:
			q.t.unschedPkts++
		case p.Type == netem.Probe:
			q.t.probePkts++
		}
	}
	s := q.t.begin(layerNetem)
	ok := q.Qdisc.Enqueue(p, now)
	q.t.end(layerNetem, s)
	return ok
}

func (q *timedQdisc) Dequeue(now sim.Time) *netem.Packet {
	s := q.t.begin(layerNetem)
	p := q.Qdisc.Dequeue(now)
	q.t.end(layerNetem, s)
	return p
}

// Counter exposes the wrapped discipline's drop totals, so netem.DropTotals
// — and with it RunResult.Drops — reads the same through the decorator.
func (q *timedQdisc) Counter() *netem.DropCounter {
	return &netem.DropCounter{Drops: netem.DropTotals([]*netem.Port{{Q: q.Qdisc}})}
}

type timedEndpoint struct {
	inner netem.Endpoint
	t     *layerTracer
}

func (e *timedEndpoint) Receive(p *netem.Packet) {
	s := e.t.begin(layerTransport)
	e.inner.Receive(p)
	e.t.end(layerTransport, s)
}

// localPorts returns the ports whose events fire on net's engine: all of
// them on a sequential run, one shard's share on a per-shard view.
func localPorts(net *netem.Network) []*netem.Port {
	var ps []*netem.Port
	for _, pt := range net.AllPorts() {
		if pt.Eng == net.Eng {
			ps = append(ps, pt)
		}
	}
	return ps
}

// instrument wraps every port and endpoint net's engine drives with one
// tracer.
func instrument(net *netem.Network) *layerTracer {
	t := &layerTracer{}
	nics := make(map[*netem.Port]bool, len(net.Hosts))
	for _, h := range net.Hosts {
		nics[h.NIC] = true
	}
	for _, pt := range localPorts(net) {
		pt.Q = &timedQdisc{Qdisc: pt.Q, t: t, nic: nics[pt], cross: pt.X != nil}
		t.ports++
	}
	for _, h := range net.EndpointHosts() {
		if h.EP != nil {
			h.EP = &timedEndpoint{inner: h.EP, t: t}
		}
	}
	return t
}

// stoppingEndpoint ends an audited run that overran its wall-clock limit:
// at the next delivery after stop is set it stops the engine, on the
// engine's own goroutine.
type stoppingEndpoint struct {
	inner netem.Endpoint
	eng   *sim.Engine
	stop  *atomic.Bool
}

func (e *stoppingEndpoint) Receive(p *netem.Packet) {
	if e.stop.Load() {
		e.eng.Stop()
	}
	e.inner.Receive(p)
}

func watchdog(net *netem.Network, stop *atomic.Bool) {
	for _, h := range net.EndpointHosts() {
		if h.EP != nil {
			h.EP = &stoppingEndpoint{inner: h.EP, eng: net.Eng, stop: stop}
		}
	}
}

// clockNs measures the cost of one clock read as the tracer makes it.
func clockNs() float64 {
	const n = 1 << 20
	var sink int64
	t0 := time.Now()
	for range n {
		sink += nanotime()
	}
	d := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(d.Nanoseconds()) / n
}
