package experiments

import (
	"cmp"
	"fmt"
	"io"
	"sort"

	"github.com/aeolus-transport/aeolus/internal/audit"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Config scales the experiments. The defaults run each experiment in
// seconds; raise Budget for a fuller reproduction.
type Config struct {
	// Budget is the approximate number of payload bytes offered per
	// simulation run; flow counts are derived from it and the workload's
	// mean flow size.
	Budget int64

	// MinFlows / MaxFlows clamp the derived flow count.
	MinFlows, MaxFlows int

	// Seed drives all randomness.
	Seed uint64

	// Quick trims parameter sweeps (fewer load points, fewer fan-ins) for
	// fast regression runs.
	Quick bool

	// Parallel is the number of simulation runs executed concurrently by
	// the experiment pool; 0 means runtime.GOMAXPROCS(0). Results are
	// independent of this value: every run derives its randomness from
	// (Seed, RunSpec) alone, never from scheduling order.
	Parallel int

	// Progress, when non-nil, is invoked after every completed run. It must
	// tolerate concurrent calls; see ProgressPrinter.
	Progress ProgressFunc

	// Audit attaches the packet-conservation checker (internal/audit) to
	// every run. Fully completed runs also drain the engine so leftover
	// control traffic settles before the books are balanced; the report
	// lands in RunResult.Audit.
	Audit bool

	// OnAudit, when non-nil and Audit is set, receives every run's report.
	// It must tolerate concurrent calls when runs execute under a Pool.
	OnAudit func(spec RunSpec, rep *audit.Report)

	// Impair, when non-nil, applies a scripted link-impairment timeline
	// (netem.Timeline) to every run — the CLIs' -impair/-impair-file knob.
	// Per-run RunSpec.Impair takes precedence. The timeline is applied after
	// the topology is built and before audit instrumentation, so injected
	// drops stay visible to the conservation checks.
	Impair *netem.Timeline

	// Shards, when > 1, partitions every run's fabric spatially and runs one
	// timing-wheel engine per shard on its own goroutine, synchronized
	// conservatively on the minimum cross-shard link latency (see Run,
	// netem.BuildShardedClos and sim.ShardGroup). Like Parallel it is a
	// runtime knob, not part of a run's identity, and scenarios do not
	// serialize it: a sharded run is deterministic, and for schemes that
	// draw no per-flow randomness it equals the sequential run up to rare
	// same-instant ties (the shard golden and differential tests keep
	// proving it; DESIGN.md §13 lists the residual divergences). The request is clamped to
	// the topology's pod structure (an edge switch and its hosts are never
	// split); single-pod topologies collapse to one shard, the sequential
	// engine. Sharding composes with impairment timelines and packet
	// tracing.
	Shards int

	// Scheduler selects the event-queue implementation backing every run's
	// engine; empty means sim.DefaultScheduler, the timing wheel. No CLI or
	// scenario sets it: it is the hook through which the tests run the
	// reference heap (sim.SchedHeap) as an oracle and prove both schedulers
	// fire events in the same (time, seq) order.
	Scheduler sim.SchedulerKind

	// Observe, when non-nil, is invoked after the topology, transport and
	// instrumentation are built but before any flow starts, giving callers a
	// window onto the run's internals (the scale sweep hangs its footprint
	// probes here). It must not schedule engine events.
	Observe func(net *netem.Network, env *transport.Env, proto transport.Protocol)

	// Trace holds the packet-level debugging options. They live on Config,
	// not RunSpec, because they are observational: a run's identity — what
	// a scenario serializes and what feeds the golden digest — is purely
	// semantic, and an io.Writer has no place in it.
	Trace RunOptions
}

// RunOptions are the non-serialized debugging knobs of a run. TraceFlow,
// when nonzero, prints every port/host event of that flow — the
// packet-level view. Output goes to TraceTo, or to a mutex-guarded
// os.Stderr so traced runs stay legible under a Pool.
type RunOptions struct {
	TraceFlow uint64
	TraceTo   io.Writer
}

// scheduler resolves the configured SchedulerKind, defaulting when unset.
func (c Config) scheduler() sim.SchedulerKind {
	if c.Scheduler == "" {
		return sim.DefaultScheduler
	}
	return c.Scheduler
}

// DefaultConfig returns a configuration sized for single-core bench runs.
func DefaultConfig() Config {
	return Config{Budget: 150 << 20, MinFlows: 100, MaxFlows: 20000, Seed: 1}
}

// flowsFor derives the flow count for a workload under the byte budget.
func (c Config) flowsFor(wl *workload.CDF) int {
	n := int(float64(c.Budget) / wl.Mean())
	if n < c.MinFlows {
		n = c.MinFlows
	}
	if n > c.MaxFlows {
		n = c.MaxFlows
	}
	return n
}

// Topology identifiers.
const (
	TopoFatTree      = "fattree"      // 8 spine/16 leaf/32 ToR/192 hosts, 100G, RTT≈52µs (ExpressPass paper)
	TopoLeafSpine    = "leafspine"    // 8 spine/8 leaf/64 hosts, 100G, RTT≈4.5µs (Homa/NDP papers)
	TopoSingleSwitch = "single"       // 8 hosts, 10G, RTT≈14µs (hardware testbed)
	TopoIncastFabric = "incastfabric" // 4 spine/9 leaf/144 hosts, 100G/400G (Fig. 17/18)
	TopoMicro        = "micro"        // 24 hosts on one 100G switch (Fig. 15/16, Table 5)
)

// RunSpec describes one simulation run.
type RunSpec struct {
	Scheme   SchemeSpec
	Topo     string
	Buffer   int64 // per-port buffer; 0 = 200 KB paper default
	Workload *workload.CDF
	CoreLoad float64
	Flows    int // 0 = derive from Config.Budget
	Incast   *workload.IncastConfig
	Deadline sim.Duration // extra simulated time after the last arrival

	// Impair, when non-nil, scripts link impairments for this run and
	// overrides Config.Impair (the degradation experiments set it per run).
	Impair *netem.Timeline
}

// RunResult aggregates the metrics every experiment consumes.
type RunResult struct {
	Scheme    string
	Total     int
	Completed int

	Small stats.Summary // flows < 100 KB
	All   stats.Summary

	// FirstRTTFrac is the fraction of small flows finishing within the base
	// RTT (the paper's "complete within the first RTT").
	FirstRTTFrac float64

	Efficiency float64

	// Goodput is the delivered rate over the whole run (arrival through
	// drain) normalized by aggregate host capacity; WindowGoodput measures
	// only the steady-state middle half of the arrival span, the Fig. 18
	// metric.
	Goodput       float64
	WindowGoodput float64
	TimeoutFlows  int
	Drops         [netem.NumDropReasons]uint64 // switch drops by netem.DropReason
	SmallCDF      [][2]float64

	// TxPackets is the total packet transmissions across every port, NICs
	// included — the per-scheme work metric the macro benchmark divides by
	// wall time to report packets/sec.
	TxPackets uint64

	// Audit is the packet-conservation report, set when Config.Audit is on.
	Audit *audit.Report

	// Events is the number of engine events fired over the run (drain
	// included), summed across shard engines; Sched aggregates scheduler
	// pressure the same way (peaks sum across shards — the bound on total
	// pending-event memory). Shards records the effective
	// shard count the run executed with (1 = the sequential engine). None of
	// these feed the golden digest: they describe the execution, not the
	// simulated outcome.
	Events uint64
	Sched  sim.SchedStats
	Shards int

	records []stats.FlowRecord
	baseRTT sim.Duration
}

// Records exposes the raw flow records of the run.
func (r *RunResult) Records() []stats.FlowRecord { return r.records }

// CheckImpair dry-builds the run's topology and applies its impairment
// timeline to it, returning the error Run would panic with — the CLIs'
// up-front validation hook, mirroring the MakeScheme check (a target
// matching no port of the chosen topology is a spec bug, not a run result).
func CheckImpair(cfg Config, spec RunSpec) error {
	impair := spec.Impair
	if impair == nil {
		impair = cfg.Impair
	}
	if impair == nil {
		return nil
	}
	scheme, err := MakeScheme(spec.Scheme)
	if err != nil {
		return err
	}
	topo, err := ResolveTopo(spec.Topo)
	if err != nil {
		return err
	}
	buffer := spec.Buffer
	if buffer <= 0 {
		buffer = netem.DefaultBuffer
	}
	net := topo.Build(scheme.Factory(buffer), netem.WireSizeFor(scheme.MSS), cfg.scheduler())
	_, err = impair.Apply(net, cfg.Seed^spec.Scheme.Seed)
	return err
}

// Run executes one simulation and collects the metrics. The fabric is cut
// into Config.Shards shards (clamped by netem.ShardCount), each with its own
// engine, pool, environment and protocol instance, and the shards' results
// are merged at the end. One shard is the sequential run: no ShardGroup, no
// barriers, the engine stopped at the event completing the last flow. A
// cross-shard flow is started on the sender's shard and pre-registered on
// the receiver's (each transport's Register), which records its completion;
// the merge adds the sender copy's timeouts (NDP counts them on the sender)
// and orders the records by finish time. See DESIGN.md §13.
func Run(cfg Config, spec RunSpec) RunResult {
	scheme := mustScheme(spec.Scheme)
	topo := mustTopo(spec.Topo)
	buffer := spec.Buffer
	if buffer <= 0 {
		buffer = netem.DefaultBuffer
	}
	shards := netem.ShardCount(topo.Spec, cfg.Shards)
	sn := netem.BuildShardedClos(topo.Spec, shards, cfg.scheduler(),
		scheme.Factory(buffer), netem.WireSizeFor(scheme.MSS))
	net := sn.Net
	envs := make([]*transport.Env, shards)
	protos := make([]transport.Protocol, shards)
	for i := range envs {
		envs[i] = transport.NewEnv(sn.View(i), scheme.MSS)
		protos[i] = scheme.New(envs[i])
	}
	if impair := cmp.Or(spec.Impair, cfg.Impair); impair != nil {
		// Install before trace/audit instrumentation wraps the qdiscs, so
		// injected drops are traced and attributed like any other drop.
		if _, err := sn.Impair(impair, cfg.Seed^spec.Scheme.Seed); err != nil {
			panic("experiments: " + err.Error())
		}
	}
	var traces *netem.TraceMerger
	if cfg.Trace.TraceFlow != 0 {
		w := cfg.Trace.TraceTo
		if w == nil {
			w = stderrLocked
		}
		flow := cfg.Trace.TraceFlow
		filter := func(p *netem.Packet) bool { return p.Flow == flow }
		var tr netem.Tracer = &netem.WriterTracer{W: w, Filter: filter}
		if shards > 1 {
			traces = netem.NewTraceMerger(w, shards, filter)
		}
		for i := range envs {
			if traces != nil {
				tr = traces.Tracer(i)
			}
			netem.InstrumentPorts(sn.ShardPorts(i), tr)
			netem.InstrumentHosts(sn.ShardHosts(i), tr)
		}
	}
	var auds []*audit.Auditor
	if cfg.Audit {
		auds = make([]*audit.Auditor, shards)
		for i := range auds {
			auds[i] = audit.AttachScope(sn.Engines[i], sn.Pools[i],
				sn.ShardPorts(i), sn.ShardHosts(i), shards > 1)
		}
	}
	if cfg.Observe != nil {
		for i, env := range envs {
			cfg.Observe(env.Net, env, protos[i])
		}
	}

	var trace []workload.FlowSpec
	if spec.Workload != nil {
		flows := spec.Flows
		if flows <= 0 {
			flows = cfg.flowsFor(spec.Workload)
		}
		pc := workload.PoissonConfig{
			CDF: spec.Workload, Hosts: topo.Hosts(),
			HostRate: net.HostRate,
			Load:     topo.EdgeLoad(spec.CoreLoad),
			Flows:    flows, Seed: cfg.Seed ^ spec.Scheme.Seed,
			StartAt: sim.Time(10 * sim.Microsecond),
		}
		trace = pc.Generate()
	}
	if spec.Incast != nil {
		ic := *spec.Incast
		ic.Hosts = topo.Hosts()
		ic.BaseID = uint64(len(trace)) + 1000000
		trace = workload.Merge(trace, ic.Generate())
	}
	deadline := spec.Deadline
	if deadline <= 0 {
		deadline = 500 * sim.Millisecond
	}
	var first, last sim.Time
	if len(trace) > 0 {
		first = trace[0].Start
		for _, f := range trace {
			if f.Start > last {
				last = f.Start
			}
		}
	}
	// Steady-state goodput window: the middle half of the arrival span. Each
	// shard samples its own meter at the same simulated instants; scheduled
	// before any flow starts, the samplers order before every runtime event
	// at the same timestamp on every shard, so the sums are the sequential
	// samples.
	d1s := make([]int64, shards)
	d2s := make([]int64, shards)
	t1 := first.Add(sim.Duration(last-first) / 4)
	t2 := first.Add(3 * sim.Duration(last-first) / 4)
	if t2 > t1 {
		for i, env := range envs {
			env.Eng.At(t1, func() { d1s[i] = env.Meter.DeliveredPayload })
			env.Eng.At(t2, func() { d2s[i] = env.Meter.DeliveredPayload })
		}
	}
	// Every shard may carry any flow's packets (spine shards forward traffic
	// they neither source nor sink), so sizes register with every auditor.
	for _, a := range auds {
		for _, f := range trace {
			a.RegisterFlow(f.ID, f.Size)
		}
	}

	// Inject the trace: the sender's shard starts each flow at its arrival
	// time, and a cross-shard receiver gets its own pre-registered copy of
	// the descriptor. Each shard's FCT collector is pre-sized with the flows
	// it will record, so completion recording never grows the heap mid-run.
	perDst := make([]int, shards)
	for _, fs := range trace {
		perDst[sn.HostShard(netem.NodeID(fs.Dst))]++
	}
	for i, env := range envs {
		env.FCT.Reserve(perDst[i])
	}
	var crossSenders map[uint64]*transport.Flow
	for _, fs := range trace {
		f := &transport.Flow{
			ID:     fs.ID,
			Src:    netem.NodeID(fs.Src),
			Dst:    netem.NodeID(fs.Dst),
			Size:   fs.Size,
			Start:  fs.Start,
			PathID: transport.FlowHash(fs.ID),
		}
		s := sn.HostShard(f.Src)
		if d := sn.HostShard(f.Dst); d != s {
			reg, ok := protos[d].(interface{ Register(f *transport.Flow) })
			if !ok {
				panic(fmt.Sprintf("experiments: scheme %s cannot register cross-shard flows", scheme.Name))
			}
			rf := *f
			reg.Register(&rf)
			if crossSenders == nil {
				crossSenders = make(map[uint64]*transport.Flow)
			}
			crossSenders[f.ID] = f
		}
		p := protos[s]
		envs[s].Eng.At(f.Start, func() { p.Start(f) })
	}

	total := len(trace)
	completed := func() int {
		n := 0
		for _, env := range envs {
			n += env.Completed()
		}
		return n
	}
	endAt := last.Add(deadline)
	var group *sim.ShardGroup
	if shards == 1 {
		env := envs[0]
		userDone := env.Done
		env.Done = func(f *transport.Flow, rec stats.FlowRecord) {
			if userDone != nil {
				userDone(f, rec)
			}
			if env.Completed() == total {
				env.Eng.Stop()
			}
		}
		env.Eng.RunUntil(endAt)
	} else {
		var visit func(h netem.Handoff)
		if auds != nil {
			visit = func(h netem.Handoff) {
				auds[h.Src].Depart(h.P)
				auds[h.Dst].Arrive(h.P)
			}
		}
		group = &sim.ShardGroup{
			Engines:   sn.Engines,
			Lookahead: sn.Lookahead,
			Barrier: func() {
				sn.Flush(visit)
				if traces != nil {
					traces.Flush()
				}
			},
			StopWhen: func() bool { return completed() == total },
		}
		group.Run(endAt)
	}
	// The run ends at the event completing the last flow. A one-shard run
	// stops right there; a sharded one at the next barrier, so the end time
	// comes from the records.
	endTime := endAt
	if total > 0 && completed() == total {
		endTime = 0
		for _, env := range envs {
			for _, r := range env.FCT.Records() {
				endTime = max(endTime, r.Finish)
			}
		}
	}
	if auds != nil && completed() == total {
		// Let in-flight control traffic and pending timers settle so the
		// drain-time invariants (empty queues, zero residual) can be checked
		// in the strict, fully-drained form. Completed flows disarm all
		// retransmission loops, so the drain terminates.
		if group == nil {
			envs[0].Eng.Run()
		} else {
			group.StopWhen = nil
			group.Run(sim.MaxTime)
		}
	}
	if traces != nil {
		traces.Flush()
	}

	fct := &envs[0].FCT
	if shards > 1 {
		// Merge the per-shard records by finish time. Within a shard the
		// collector order is completion order; the stable sort keeps it, so
		// ties across shards break deterministically by shard index.
		fct = &stats.FCTCollector{}
		fct.Reserve(total)
		for _, env := range envs {
			for _, r := range env.FCT.Records() {
				if f := crossSenders[r.ID]; f != nil {
					r.Timeouts += f.Timeouts
				}
				fct.Add(r)
			}
		}
		recs := fct.Records()
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Finish < recs[j].Finish })
	}
	var meter stats.ByteMeter
	var d1, d2 int64
	for i, env := range envs {
		meter.SentPayload += env.Meter.SentPayload
		meter.DeliveredPayload += env.Meter.DeliveredPayload
		d1 += d1s[i]
		d2 += d2s[i]
	}

	res := RunResult{
		Scheme:    scheme.Name,
		Total:     total,
		Completed: completed(),
		baseRTT:   net.BaseRTT,
		records:   fct.Records(),
		Shards:    shards,
	}
	// Metric extraction runs on the collector's scratch buffers: the CDF
	// consumes the filtered view before the next Filter call invalidates it.
	small := fct.Filter(0, 100_000)
	res.Small = fct.Summarize(small)
	res.All = fct.Summarize(fct.Records())
	if len(small) > 0 {
		n := 0
		for _, r := range small {
			if r.FCT() <= net.BaseRTT {
				n++
			}
		}
		res.FirstRTTFrac = float64(n) / float64(len(small))
	}
	res.Efficiency = meter.Efficiency()
	capacity := sim.Rate(int64(net.HostRate) * int64(len(net.Hosts)))
	res.Goodput = meter.Goodput(endTime.Sub(0), capacity)
	if t2 > t1 && d2 > d1 {
		// Steady-state goodput over the middle half of the arrival span.
		res.WindowGoodput = float64(d2-d1) * 8 / sim.Duration(t2-t1).Seconds() / float64(capacity)
	} else if span := endTime.Sub(first); total > 0 && span > 0 {
		// Simultaneous arrivals (pure incast) collapse the middle-half
		// window to nothing; fall back to the whole arrival→drain span.
		res.WindowGoodput = float64(meter.DeliveredPayload) * 8 / span.Seconds() / float64(capacity)
	}
	res.TimeoutFlows = fct.TimeoutFlows()
	res.Drops = netem.DropTotals(net.SwitchPorts())
	for _, pt := range net.AllPorts() {
		res.TxPackets += pt.TxPackets
	}
	res.SmallCDF = stats.FCTCDF(small)
	for _, eng := range sn.Engines {
		res.Events += eng.Fired()
		ss := eng.SchedStats()
		res.Sched.Pending += ss.Pending
		res.Sched.PeakPending += ss.PeakPending
		res.Sched.Overflow += ss.Overflow
		res.Sched.PeakOverflow += ss.PeakOverflow
	}
	if auds != nil {
		reps := make([]*audit.Report, shards)
		for i, a := range auds {
			a.AuditProtocol(protos[i])
			a.CheckMeter(envs[i].Meter.SentPayload, envs[i].Meter.DeliveredPayload)
			reps[i] = a.Finish()
		}
		rep := reps[0]
		if shards > 1 {
			rep = audit.MergeReports(reps)
			// The cross-pool balance only the merged view can check: once
			// every engine drains, every packet handed out by some pool was
			// returned to some pool.
			drained := true
			for _, eng := range sn.Engines {
				drained = drained && eng.Pending() == 0
			}
			if drained && rep.Pool.Gets != rep.Pool.Puts {
				rep.AddViolation(audit.Violation{Check: "pool-leak",
					Detail: fmt.Sprintf("engines idle but pools handed out %d packets and got back %d",
						rep.Pool.Gets, rep.Pool.Puts)})
			}
		}
		res.Audit = rep
		if cfg.OnAudit != nil {
			cfg.OnAudit(spec, rep)
		}
	}
	return res
}
