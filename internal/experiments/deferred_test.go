package experiments

import (
	"slices"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// eagerQdisc reports one packet more than its discipline holds. A port never
// sees an empty backlog behind it, so it schedules every tx-done at
// transmission start instead of deferring it.
type eagerQdisc struct{ netem.Qdisc }

func (q eagerQdisc) Backlog() netem.Backlog {
	b := q.Qdisc.Backlog()
	b.Packets++
	return b
}

// Counter keeps the wrapped discipline's drop tallies visible to
// netem.DropTotals, which feeds the digest.
func (q eagerQdisc) Counter() *netem.DropCounter {
	return &netem.DropCounter{Drops: netem.DropTotals([]*netem.Port{{Q: q.Qdisc}})}
}

// deferredRun is what one run exposes to the differential: the digest, the
// per-port transmission counts in port order, and the events fired.
type deferredRun struct {
	digest string
	tx     []uint64
	events uint64
}

// runDeferred runs spec, forcing every port to schedule its tx-done eagerly
// when eager is set, and collects the ports' transmission counts.
func runDeferred(t *testing.T, cfg Config, spec RunSpec, eager bool) deferredRun {
	t.Helper()
	var ports []*netem.Port
	cfg.Observe = func(net *netem.Network, _ *transport.Env, _ transport.Protocol) {
		for _, pt := range net.AllPorts() {
			if pt.Eng != net.Eng {
				continue // another shard's port
			}
			if eager {
				pt.Q = eagerQdisc{pt.Q}
			}
			ports = append(ports, pt)
		}
	}
	r := Run(cfg, spec)
	if r.Audit != nil && !r.Audit.Ok() {
		t.Fatalf("eager=%v: %v", eager, r.Audit.Err())
	}
	var tx []uint64
	for _, pt := range ports {
		tx = append(tx, pt.TxPackets)
	}
	return deferredRun{digest: r.Digest(), tx: tx, events: r.Events}
}

// TestDeferredTxDoneDifferential proves that deferring a port's tx-done until
// a packet waits behind the wire changes nothing but the event count. Every
// golden scheme, an impaired run (random loss plus a link flap) and a
// two-shard run execute twice: as built, and with every qdisc wrapped to
// report a phantom packet, which makes every port schedule its tx-done
// eagerly, as ports did before deferral. The digests and per-port
// transmission counts must match, and the eager run must fire strictly more
// events. The plain runs are audited, so no packet may be left stranded
// behind a deferred tx-done either.
func TestDeferredTxDoneDifferential(t *testing.T) {
	type tcase struct {
		name string
		cfg  Config
		spec RunSpec
	}
	var cases []tcase
	for _, e := range Schemes() {
		cases = append(cases, tcase{"golden/" + e.ID, GoldenConfig(), GoldenSpec(e.ID)})
	}
	impaired := GoldenSpec("xpass+aeolus")
	impaired.Impair = chaosTimeline(t)
	cases = append(cases, tcase{"impaired/xpass+aeolus", GoldenConfig(), impaired})
	sharded := shardDiffConfig()
	sharded.Shards = 2
	cases = append(cases, tcase{"shards2/homa+aeolus", sharded, shardDiffSpec()})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, sched := range goldenSchedulers(t) {
				cfg := tc.cfg
				cfg.Scheduler = sched
				cfg.Audit = true
				deferred := runDeferred(t, cfg, tc.spec, false)
				eager := runDeferred(t, cfg, tc.spec, true)
				if deferred.digest != eager.digest {
					t.Errorf("%s: digest with deferred tx-done %s, eager %s", sched, deferred.digest, eager.digest)
				}
				if !slices.Equal(deferred.tx, eager.tx) {
					t.Errorf("%s: per-port TxPackets differ:\ndeferred %v\neager    %v", sched, deferred.tx, eager.tx)
				}
				if deferred.events >= eager.events {
					t.Errorf("%s: deferred run fired %d events, eager %d: nothing was deferred", sched, deferred.events, eager.events)
				}
			}
		})
	}
}
