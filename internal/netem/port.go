package netem

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// Node is anything a port can deliver packets to: a host or a switch.
type Node interface {
	Receive(p *Packet)
}

// Port is a unidirectional output port: a queueing discipline feeding a
// serializer at the link rate, followed by a fixed propagation delay to the
// destination node. Ports never reorder what their qdisc hands them.
//
// The serialization hot path schedules no closures: the tx-done and wake-up
// events dispatch through pointer-cast views of the port itself, and the
// delivery event is the packet (see Packet.Fire).
//
// A transmission that leaves the qdisc empty schedules no tx-done: there is
// nothing for it to start. The port reserves the tx-done's key instead
// (sim.Engine.Reserve) and the next kick decides: if the key is still
// pending, a packet arrived while the wire was busy, so the tx-done is
// scheduled under exactly that key and fires where it always would have;
// otherwise the wire went idle at the key and the packet goes out now.
// Either way the port behaves as if the tx-done had been scheduled eagerly,
// because the qdisc contract makes a tx-done on an empty qdisc a no-op.
type Port struct {
	Eng   *sim.Engine
	Q     Qdisc
	Rate  sim.Rate
	Delay sim.Duration
	Dst   Node
	Pool  *PacketPool // releases dropped packets; nil is valid (no recycling)
	Label string      // e.g. "leaf3->spine1", for diagnostics

	// Imp, when non-nil, is the link-impairment controller installed by
	// InstallImpairment: it may mutate Rate and add per-packet delivery
	// delay. Unimpaired ports pay nothing for it.
	Imp *LinkImpairment

	// X, when non-nil, marks this port as a cross-shard link: the delivery
	// event is handed to the shard exchange instead of the local engine, and
	// the destination shard schedules it at the next window barrier. Ports
	// inside a shard (and every port of an unsharded run) pay one nil check.
	X *CrossLink

	busy     bool
	deferred bool    // busy, and the tx-done is reserved under txDone, not scheduled
	txDone   sim.Key // the deferred tx-done's key
	wake     sim.Handle
	wakeAt   sim.Time

	// Counters.
	TxPackets uint64
	TxBytes   int64
}

// portTxDone and portWake are zero-state Handler views of a Port: casting
// the port pointer selects which Fire runs, so scheduling either event
// allocates nothing.
type portTxDone Port

func (d *portTxDone) Fire() {
	pt := (*Port)(d)
	pt.busy = false
	pt.kick()
}

type portWake Port

func (w *portWake) Fire() {
	pt := (*Port)(w)
	pt.wake = sim.Handle{}
	pt.kick()
}

// NewPort constructs a port. The qdisc, rate and destination must be set.
func NewPort(eng *sim.Engine, q Qdisc, rate sim.Rate, delay sim.Duration, dst Node, label string) *Port {
	return &Port{Eng: eng, Q: q, Rate: rate, Delay: delay, Dst: dst, Label: label}
}

// Send offers a packet to the port. If the qdisc drops it, the port
// terminates the packet's life and releases it to the pool — drop hooks and
// tracing run inside Enqueue, before the release.
func (pt *Port) Send(p *Packet) {
	if pt.Q.Enqueue(p, pt.Eng.Now()) {
		pt.kick()
	} else {
		pt.ReleasePacket(p)
	}
}

// ReleasePacket terminates the life of a packet refused by the port's qdisc
// stack and returns it to the pool. Any drop hook or trace must already have
// fired (inside Enqueue); this is the single terminal release point for
// drops, mirroring Host.deliver for deliveries.
func (pt *Port) ReleasePacket(p *Packet) { pt.Pool.Put(p) }

// kick starts the serializer if it is idle and a packet is eligible. If the
// qdisc is holding shaped packets, a wake-up is scheduled instead. A deferred
// tx-done is settled first: scheduled under its reserved key while that is
// still pending, else the wire has gone idle.
func (pt *Port) kick() {
	if pt.busy {
		if !pt.deferred {
			return
		}
		pt.deferred = false
		if pt.Eng.KeyPending(pt.txDone) {
			pt.Eng.AtKey(pt.txDone, (*portTxDone)(pt))
			return
		}
		pt.busy = false
	}
	now := pt.Eng.Now()
	p := pt.Q.Dequeue(now)
	if p == nil {
		w := pt.Q.NextWake(now)
		if w == sim.MaxTime {
			return
		}
		if pt.wake.Pending() && pt.wakeAt <= w && pt.wakeAt > now {
			return // an earlier or equal wake-up is already pending
		}
		pt.wake.Cancel()
		if w <= now {
			w = now + 1 // defensive: never busy-loop at the same instant
		}
		pt.wakeAt = w
		pt.wake = pt.Eng.AtHandler(w, (*portWake)(pt))
		return
	}
	pt.busy = true
	pt.TxPackets++
	pt.TxBytes += int64(p.WireSize)
	tx := sim.TxTime(p.WireSize, pt.Rate)
	if pt.Q.Backlog().Packets == 0 {
		pt.deferred = true
		pt.txDone = pt.Eng.Reserve(now.Add(tx))
	} else {
		pt.Eng.AfterHandler(tx, (*portTxDone)(pt))
	}
	p.next = pt.Dst
	delay := pt.Delay
	if pt.Imp != nil {
		delay += pt.Imp.wireDelay()
	}
	if pt.X != nil {
		pt.X.depart(p, now.Add(tx+delay), now)
		return
	}
	pt.Eng.AfterHandler(tx+delay, p)
}

// Backlog reports the qdisc occupancy.
func (pt *Port) Backlog() Backlog { return pt.Q.Backlog() }

// CheckDeferred verifies the invariant that makes deferring a tx-done safe:
// a port whose tx-done is deferred has an empty qdisc. Every enqueue is
// followed by a kick, which settles the deferral, so a packet found queued
// behind a deferred tx-done is stranded — nothing will ever send it.
func (pt *Port) CheckDeferred() error {
	if !pt.deferred {
		return nil
	}
	if b := pt.Q.Backlog(); b.Packets != 0 {
		return fmt.Errorf("tx-done deferred under key %+v but %d packets (%d bytes) are queued: stranded behind an unscheduled tx-done",
			pt.txDone, b.Packets, b.Bytes)
	}
	return nil
}
