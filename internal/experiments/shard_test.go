package experiments

import (
	"sort"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// shardDiffSpec is the cross-pod differential scenario: Homa with spraying
// off is the one catalogued configuration that draws no random number
// anywhere — ExpressPass jitters credit gaps at receivers, NDP and default
// Homa spray paths at senders, and each of those streams would be consumed
// in per-shard order rather than global order. With no RNG, a sharded run
// must reproduce the sequential run exactly: identical flow records,
// identical meters, identical drop counters — the full digest.
func shardDiffSpec() RunSpec {
	return RunSpec{
		Scheme: SchemeSpec{ID: "homa+aeolus", Seed: 3,
			Workload: workload.WebServer,
			Opts:     map[string]string{"spray": "false"}},
		Topo:     TopoLeafSpine,
		Workload: workload.WebServer,
		CoreLoad: 0.5,
		Flows:    300,
	}
}

func shardDiffConfig() Config {
	cfg := DefaultConfig()
	cfg.Audit = true
	return cfg
}

// shardLoss is uniform 3% loss on every port of the fabric, NICs included:
// drops on both sides of every shard cut, so timeouts land on both the
// sender and the receiver side of cross-shard flows.
func shardLoss() *netem.Timeline {
	return &netem.Timeline{Steps: []netem.TimelineStep{
		{Target: "*->*", Action: netem.ActLoss, Rate: 0.03},
	}}
}

// shardChaos composes the impairment kinds a timeline can script across
// the cut: background loss everywhere, a spine downlink that fails and
// comes back mid-run, and added delay with jitter on every leaf uplink.
func shardChaos() *netem.Timeline {
	return &netem.Timeline{Steps: []netem.TimelineStep{
		{Target: "*->*", Action: netem.ActLoss, Rate: 0.01},
		{At: 100 * sim.Microsecond, Target: "spine0->leaf3", Action: netem.ActFail},
		{At: 300 * sim.Microsecond, Target: "spine0->leaf3", Action: netem.ActRestore},
		{Target: "leaf*->spine*", Action: netem.ActDelay, Add: sim.Microsecond, Jitter: 500 * sim.Nanosecond},
	}}
}

// TestShardedDifferential pins the sharding contract on a fabric that
// actually splits: the same run on the 8-pod leaf-spine must digest
// byte-identical under 1, 2 and 4 shards — flow records with their timeout
// counts, meters and drop counters — unimpaired and impaired alike. Plain
// Homa without spraying draws no random number either, and its impaired
// cases cover per-port loss streams, a link flap and jittered delay on
// ports spread over every shard.
func TestShardedDifferential(t *testing.T) {
	homa := shardDiffSpec()
	homa.Scheme.ID = "homa"
	cases := []struct {
		name   string
		spec   RunSpec
		impair *netem.Timeline
	}{
		{"homa+aeolus", shardDiffSpec(), nil},
		{"homa/loss", homa, shardLoss()},
		{"homa/chaos", homa, shardChaos()},
		{"homa+aeolus/chaos", shardDiffSpec(), shardChaos()},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			spec := c.spec
			spec.Impair = c.impair
			cfg := shardDiffConfig()
			base := Run(cfg, spec)
			if base.Audit == nil || !base.Audit.Ok() {
				t.Fatalf("sequential baseline audit: %v", base.Audit.Err())
			}
			if c.impair == nil && base.Completed != base.Total {
				t.Fatalf("sequential baseline completed %d of %d", base.Completed, base.Total)
			}
			if c.impair != nil && base.TimeoutFlows == 0 {
				t.Fatal("impaired baseline suffered no timeouts; the case would not compare them")
			}
			want := base.Digest()
			for _, n := range []int{2, 4} {
				cfg.Shards = n
				res := Run(cfg, spec)
				if res.Shards != n {
					t.Fatalf("Shards=%d ran with %d shards", n, res.Shards)
				}
				if res.Audit == nil || !res.Audit.Ok() {
					t.Fatalf("shards=%d audit: %v", n, res.Audit.Err())
				}
				if got := res.Digest(); got != want {
					t.Errorf("shards=%d digest diverged from sequential:\n got  %s\n want %s\n(records: seq %d/%d, sharded %d/%d; timeout flows: seq %d, sharded %d)",
						n, got, want, base.Completed, base.Total, res.Completed, res.Total,
						base.TimeoutFlows, res.TimeoutFlows)
				}
			}
		})
	}
}

// TestShardedDeterminism covers the runs the differential test cannot: with
// RNG in play a sharded run may legitimately differ from the sequential one
// (per-shard streams), but it must still complete, balance its books and be
// a pure function of the spec — two identical invocations must digest
// identically, or the handoff merge leaks goroutine scheduling into
// results. Homa+Aeolus under loss is here for a known divergence: it draws
// no random number, yet at 2 shards one flow's GRANT loses a same-instant
// tie and finishes two RTOs late (ROADMAP item 2).
func TestShardedDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		id     string
		shards int
		impair *netem.Timeline
	}{
		{"xpass+aeolus", "xpass+aeolus", 4, nil},
		{"ndp+aeolus", "ndp+aeolus", 4, nil},
		{"xpass+aeolus/loss", "xpass+aeolus", 4, shardLoss()},
		{"ndp+aeolus/loss", "ndp+aeolus", 4, shardLoss()},
		{"homa+aeolus/loss", "homa+aeolus", 2, shardLoss()},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			spec := shardDiffSpec()
			spec.Scheme = SchemeSpec{ID: c.id, Seed: 3, Workload: workload.WebServer}
			if c.id == "homa+aeolus" {
				spec.Scheme.Opts = map[string]string{"spray": "false"}
			}
			spec.Impair = c.impair
			cfg := shardDiffConfig()
			cfg.Shards = c.shards
			a := Run(cfg, spec)
			b := Run(cfg, spec)
			if a.Digest() != b.Digest() {
				t.Errorf("two identical shards=%d runs digest differently:\n  %s\n  %s", c.shards, a.Digest(), b.Digest())
			}
			if a.Completed != a.Total {
				t.Errorf("completed %d of %d", a.Completed, a.Total)
			}
			if a.Audit == nil || !a.Audit.Ok() {
				t.Errorf("audit: %v", a.Audit.Err())
			}
		})
	}
}

// TestShardedAuditSweep balances the books for one representative of each
// transport family on a sharded fabric, incast included — NDP exercises
// cross-shard trimming and the sender-side RTO self-disarm, ExpressPass the
// credit loop, Homa the grant loop — and, under loss, the recovery paths
// that must work without a receiver reaching into its sender's state.
func TestShardedAuditSweep(t *testing.T) {
	cases := []struct {
		name, id string
		impair   *netem.Timeline
	}{
		{"xpass+aeolus", "xpass+aeolus", nil},
		{"homa+aeolus", "homa+aeolus", nil},
		{"ndp+aeolus", "ndp+aeolus", nil},
		{"xpass+aeolus/loss", "xpass+aeolus", shardLoss()},
		{"ndp+aeolus/loss", "ndp+aeolus", shardLoss()},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			spec := RunSpec{
				Scheme:   SchemeSpec{ID: c.id, Seed: 5, Workload: workload.WebServer},
				Topo:     TopoLeafSpine,
				Workload: workload.WebServer,
				CoreLoad: 0.6,
				Flows:    200,
				Incast:   &workload.IncastConfig{Fanin: 12, Receiver: 0, MsgSize: 100_000, Seed: 9},
				Impair:   c.impair,
			}
			cfg := shardDiffConfig()
			cfg.Shards = 4
			res := Run(cfg, spec)
			if res.Shards != 4 {
				t.Fatalf("ran with %d shards, want 4", res.Shards)
			}
			if res.Completed != res.Total {
				t.Fatalf("completed %d of %d", res.Completed, res.Total)
			}
			if res.Audit == nil || !res.Audit.Ok() {
				t.Fatalf("audit: %v", res.Audit.Err())
			}
			if res.Audit.ForwardedPayload == 0 {
				t.Error("no payload crossed a shard boundary — partition is not exercising handoffs")
			}
			if res.Audit.ForwardedPayload != res.Audit.ArrivedPayload {
				t.Errorf("boundary ledger imbalanced: forwarded %d, arrived %d",
					res.Audit.ForwardedPayload, res.Audit.ArrivedPayload)
			}
		})
	}
}

// TestShardGoldenMatrix runs every golden scheme across the full runtime-knob
// matrix — shards {1,2,4} × both schedulers × pool on/off — and requires the
// digest of every cell to equal the shards=1 digest of the same scheme. On
// the single-switch golden topology every shard request collapses to the
// sequential engine, which is the single-pod half of the sharding contract;
// TestShardedDifferential covers the multi-pod half.
func TestShardGoldenMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden matrix is not -short")
	}
	for id := range goldenDigests {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want := goldenDigestAt(t, id, true, sim.SchedWheel, 1)
			if pinned, ok := goldenDigests[id]; ok && want != pinned {
				t.Fatalf("shards=1 digest drifted from pinned golden:\n got  %s\n want %s", want, pinned)
			}
			for _, shards := range []int{2, 4} {
				for _, sched := range []sim.SchedulerKind{sim.SchedWheel, sim.SchedHeap} {
					for _, pool := range []bool{true, false} {
						if got := goldenDigestAt(t, id, pool, sched, shards); got != want {
							t.Errorf("digest diverged (shards=%d sched=%s pool=%v):\n got  %s\n want %s",
								shards, sched, pool, got, want)
						}
					}
				}
			}
		})
	}
}

// TestShardedEventsAccounting checks the execution metadata new on RunResult:
// both paths must report fired events, and the sharded count covers all
// engines.
func TestShardedEventsAccounting(t *testing.T) {
	spec := shardDiffSpec()
	cfg := shardDiffConfig()
	seq := Run(cfg, spec)
	if seq.Events == 0 || seq.Shards != 1 {
		t.Fatalf("sequential run reported Events=%d Shards=%d", seq.Events, seq.Shards)
	}
	cfg.Shards = 4
	shr := Run(cfg, spec)
	if shr.Events == 0 {
		t.Fatal("sharded run reported zero events")
	}
}

// crossShardFlows runs spec and reports which completed flows crossed a
// shard boundary, reading each shard's hosts off the view the run hands to
// Config.Observe and each flow's endpoints off the completion hook (called
// on the completing shard's goroutine, so each shard fills its own map).
func crossShardFlows(cfg Config, spec RunSpec) (RunResult, map[uint64]bool) {
	owner := map[netem.NodeID]int{}
	var ends []map[uint64][2]netem.NodeID
	cfg.Observe = func(net *netem.Network, env *transport.Env, _ transport.Protocol) {
		for _, h := range net.EndpointHosts() {
			owner[h.ID] = len(ends)
		}
		mine := map[uint64][2]netem.NodeID{}
		ends = append(ends, mine)
		env.Done = func(f *transport.Flow, _ stats.FlowRecord) { mine[f.ID] = [2]netem.NodeID{f.Src, f.Dst} }
	}
	res := Run(cfg, spec)
	cross := map[uint64]bool{}
	for _, m := range ends {
		for id, e := range m {
			if owner[e[0]] != owner[e[1]] {
				cross[id] = true
			}
		}
	}
	return res, cross
}

// TestShardedSenderTimeoutsMerged: NDP counts timeouts on the sender, and a
// cross-shard flow's sender is a separate copy, on another shard than the
// receiver that records its completion. The merge must carry the sender
// copy's timeouts into the flow's record.
func TestShardedSenderTimeoutsMerged(t *testing.T) {
	spec := shardDiffSpec()
	spec.Scheme = SchemeSpec{ID: "ndp", Seed: 3, Workload: workload.WebServer}
	spec.Impair = shardLoss()
	cfg := shardDiffConfig()
	cfg.Shards = 2
	res, cross := crossShardFlows(cfg, spec)
	if res.Completed != res.Total || !res.Audit.Ok() {
		t.Fatalf("completed %d of %d, audit: %v", res.Completed, res.Total, res.Audit.Err())
	}
	if len(cross) == 0 {
		t.Fatal("no cross-shard flow in the run")
	}
	timedOut := 0
	for _, r := range res.Records() {
		if cross[r.ID] && r.Timeouts > 0 {
			timedOut++
		}
	}
	if timedOut == 0 {
		t.Fatalf("none of %d cross-shard flow records reports a timeout under 3%% loss: the sender copies' timeouts were lost in the merge", len(cross))
	}
}

// TestShardedTraceMatchesSequential: a packet trace composes with sharding.
// Each shard buffers its own lines and the barrier merge writes them in
// time order, so a 2-shard trace of a flow that crosses the cut has exactly
// the sequential trace's lines, in the same time order.
func TestShardedTraceMatchesSequential(t *testing.T) {
	spec := shardDiffSpec()
	cfg := shardDiffConfig()
	cfg.Shards = 2
	_, cross := crossShardFlows(cfg, spec)
	var flow uint64
	for id := range cross {
		if flow == 0 || id < flow {
			flow = id
		}
	}
	if flow == 0 {
		t.Fatal("no cross-shard flow to trace")
	}
	trace := func(shards int) []string {
		var sb strings.Builder
		c := shardDiffConfig()
		c.Shards = shards
		c.Trace = RunOptions{TraceFlow: flow, TraceTo: &sb}
		if res := Run(c, spec); res.Shards != shards {
			t.Fatalf("traced run with Shards=%d ran with %d shards", shards, res.Shards)
		}
		return strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	}
	seq, shr := trace(1), trace(2)
	if len(seq) < 10 {
		t.Fatalf("flow %d traced only %d lines", flow, len(seq))
	}
	timeOf := func(lines []string) string {
		var ts []string
		for _, l := range lines {
			ts = append(ts, strings.Fields(l)[0])
		}
		return strings.Join(ts, " ")
	}
	if timeOf(seq) != timeOf(shr) {
		t.Errorf("sharded trace of flow %d is not in the sequential time order", flow)
	}
	sort.Strings(seq)
	sort.Strings(shr)
	if strings.Join(seq, "\n") != strings.Join(shr, "\n") {
		t.Errorf("sharded trace of flow %d differs from the sequential one:\n%s\n--- vs ---\n%s",
			flow, strings.Join(shr, "\n"), strings.Join(seq, "\n"))
	}
}
