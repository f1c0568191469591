package netem

import (
	"reflect"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// eagerQdisc reports one packet more than its discipline holds, so the port
// never sees an empty backlog after a dequeue and schedules every tx-done
// eagerly. It is the reference the deferred tx-done must match.
type eagerQdisc struct{ Qdisc }

func (q eagerQdisc) Backlog() Backlog {
	b := q.Qdisc.Backlog()
	b.Packets++
	return b
}

// flowOrder records the flow of every packet it receives, in arrival order.
type flowOrder []uint64

func (o *flowOrder) Receive(p *Packet) { *o = append(*o, p.Flow) }

// TestDeferredTxDoneSameInstantTie puts a low-priority packet on the wire of
// a strict-priority port with an empty queue, so its tx-done is deferred,
// then lands a low- and a high-priority packet on the port at exactly the
// instant the wire frees up. Whether the arrivals sort before or after the
// reserved tx-done key decides the order: before it, both wait and the
// high-priority one goes first; after it, the wire is idle and the
// low-priority one goes out at once. The deferred port must reproduce the
// order of the eager one in both cases, firing fewer events.
func TestDeferredTxDoneSameInstantTie(t *testing.T) {
	const rate = 10 * sim.Gbps
	end := sim.Time(sim.TxTime(1500, rate))
	run := func(arriveFirst, eager bool) (flowOrder, uint64) {
		eng := sim.NewEngine()
		var got flowOrder
		var q Qdisc = NewPrioQdisc(8, DefaultBuffer)
		if eager {
			q = eagerQdisc{q}
		}
		pt := NewPort(eng, q, rate, sim.Microsecond, &got, "sw0->h0")
		arrive := func() {
			lo, hi := dataPkt(2, 1500, false), dataPkt(3, 1500, false)
			lo.Prio, hi.Prio = 7, 0
			pt.Send(lo)
			pt.Send(hi)
		}
		first := dataPkt(1, 1500, false)
		first.Prio = 7
		if arriveFirst {
			eng.At(end, arrive) // keyed before the tx-done reserved below
			pt.Send(first)
		} else {
			pt.Send(first)
			eng.At(end, arrive) // keyed after the reserved tx-done
		}
		eng.Run()
		if err := pt.CheckDeferred(); err != nil {
			t.Fatal(err)
		}
		return got, eng.Fired()
	}
	for _, tc := range []struct {
		name        string
		arriveFirst bool
		want        flowOrder
	}{
		{"arrivals-before-key", true, flowOrder{1, 3, 2}},
		{"arrivals-after-key", false, flowOrder{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			deferred, dEvents := run(tc.arriveFirst, false)
			eager, eEvents := run(tc.arriveFirst, true)
			if !reflect.DeepEqual(eager, tc.want) {
				t.Fatalf("eager port sent %v, want %v", eager, tc.want)
			}
			if !reflect.DeepEqual(deferred, eager) {
				t.Fatalf("deferred port sent %v, eager port sent %v", deferred, eager)
			}
			if dEvents >= eEvents {
				t.Fatalf("deferred port fired %d events, eager %d: nothing was deferred", dEvents, eEvents)
			}
		})
	}
}
