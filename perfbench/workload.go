package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aeolus-transport/aeolus/internal/experiments"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// A workloadDef is a fixed list of scenarios, generated from the seed and run
// closed loop: each of clients workers starts its next scenario only when its
// previous one has returned.
type workloadDef struct {
	name    string
	clients int
	// shards is the Config.Shards request every run uses.
	shards int
	// twinShards, when nonzero, names the shard count of the workload's
	// twin: the same scenarios on the other execution mode. The traced run
	// measures the shard layer from it; when checkTwin is set, every run
	// also executes the twin and a digest differing from it is a failure.
	twinShards int
	checkTwin  bool
	scenarios  func(seed uint64) []scenario.Scenario
}

// paperBudgetMiB sizes every paper-figs run (aeolusbench -budget): big
// enough that the protocol paths dominate setup, small enough that one pass
// of all 69 runs takes a few seconds on two cores.
const paperBudgetMiB = 8

// paperFigs are the registry experiments users regenerate the paper with:
// all three transports with and without Aeolus, incast, priority queueing,
// the threshold/probe ablation and injected impairments.
var paperFigs = []string{"fig9", "fig12", "fig14", "fig17", "table4", "ablation", "degrade"}

func scaleH256(seed uint64) []scenario.Scenario {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	return []scenario.Scenario{experiments.ScaleScenario(cfg, 16, 0.8)}
}

func scaleH64(seed uint64) []scenario.Scenario {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	return []scenario.Scenario{experiments.ScaleScenario(cfg, 8, 0.8)}
}

func paperScenarios(seed uint64) []scenario.Scenario {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Quick = true
	cfg.Budget = paperBudgetMiB << 20
	var scns []scenario.Scenario
	for _, id := range paperFigs {
		e, err := experiments.ByID(id)
		if err != nil {
			panic(err) // the list above names registry entries
		}
		scns = append(scns, e.Scenarios(cfg)...)
	}
	return scns
}

var workloads = []workloadDef{
	{name: "scale-h256", clients: 1, shards: 1, twinShards: 2, scenarios: scaleH256},
	{name: "scale-h64", clients: 1, shards: 1, twinShards: 2, scenarios: scaleH64},
	{name: "scale-h256-s2", clients: 1, shards: 2, twinShards: 1, checkTwin: true, scenarios: scaleH256},
	{name: "paper-figs", clients: 2, shards: 1, scenarios: paperScenarios},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runMode selects what a pass attaches to each run through Config.Observe.
type runMode int

const (
	modePlain   runMode = iota // timing only
	modeTraced                 // layer decorators on every port and endpoint
	modeAudited                // conservation audit under a wall-clock limit
)

// runOut is one executed scenario.
type runOut struct {
	res     experiments.RunResult
	digest  string // RunResult.Digest
	records string // digest of the flow records alone
	wall    time.Duration

	// Read off the run's engines (one per shard) after it returns, so the
	// fabric and protocol state can be collected before the next run.
	fired, slots    []uint64 // per engine: events fired, event slots carved
	sent, delivered int64    // payload bytes, summed over engines
	allocated       uint64   // packets the pools ever allocated
	portDrops       [netem.NumDropReasons]uint64
	ports           int // ports in the whole fabric
	tracers         []*layerTracer

	stateBytes int64 // retained heap growth across the run (traced runs)
	overLimit  bool  // audited run exceeded its wall-clock limit
	abandoned  bool  // ... and did not stop; it ends with the process
}

// passOut is one closed-loop pass over a workload's scenarios.
type passOut struct {
	runs []runOut
	wall time.Duration
	cpu  time.Duration
	rt   runtimeDelta
}

// pass runs every scenario closed loop on clients workers.
func pass(scns []scenario.Scenario, clients, shards int, mode runMode, limits []time.Duration) passOut {
	out := passOut{runs: make([]runOut, len(scns))}
	rt0, cpu0 := snapRuntime(), cpuTime()
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scns) {
					return
				}
				var limit time.Duration
				if limits != nil {
					limit = limits[i]
				}
				out.runs[i] = runOne(scns[i], shards, mode, limit)
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(t0)
	out.cpu = cpuTime() - cpu0
	out.rt = snapRuntime().sub(rt0)
	return out
}

// runOne executes one scenario.
func runOne(sc scenario.Scenario, shards int, mode runMode, limit time.Duration) runOut {
	var r runOut
	t0 := time.Now()
	sem, spec, err := experiments.FromScenario(&sc)
	if err != nil {
		panic(fmt.Sprintf("perfbench: scenario %s: %v", label(sc), err))
	}
	cfg := experiments.Config{Shards: shards}.ForScenario(sem)
	cfg.Audit = mode == modeAudited
	var stop atomic.Bool
	var heapStart uint64
	var settled time.Duration // forced-GC time inside the run, not the run's own
	var nets []*netem.Network
	var envs []*transport.Env
	cfg.Observe = func(net *netem.Network, env *transport.Env, _ transport.Protocol) {
		nets = append(nets, net)
		envs = append(envs, env)
		switch mode {
		case modeTraced:
			r.tracers = append(r.tracers, instrument(net))
			if len(envs) == 1 {
				s := time.Now()
				heapStart = heapSettled()
				settled += time.Since(s)
			}
		case modeAudited:
			if shards <= 1 {
				watchdog(net, &stop)
			}
		}
	}
	if mode != modeAudited {
		r.res = experiments.Run(cfg, spec)
	} else {
		done := make(chan experiments.RunResult, 1)
		go func() { done <- experiments.Run(cfg, spec) }()
		select {
		case r.res = <-done:
		case <-time.After(limit):
			r.overLimit = true
			stop.Store(true)
			// A stopped sequential run returns at its next delivery; one that
			// cannot be stopped is left behind and ends with the process.
			select {
			case r.res = <-done:
			case <-time.After(2 * time.Second):
				r.abandoned = true
			}
		}
		r.overLimit = r.overLimit || time.Since(t0) > limit
	}
	r.wall = time.Since(t0) - settled
	if mode == modeTraced {
		r.stateBytes = int64(heapSettled()) - int64(heapStart)
	}
	if !r.abandoned {
		for _, e := range envs {
			r.fired = append(r.fired, e.Eng.Fired())
			r.slots = append(r.slots, e.Eng.EventAllocs())
			r.sent += e.Meter.SentPayload
			r.delivered += e.Meter.DeliveredPayload
		}
		for _, n := range nets {
			r.allocated += n.Pool.Stats().Allocated
		}
		r.portDrops = netem.DropTotals(nets[0].AllPorts())
		r.ports = len(nets[0].AllPorts())
	}
	r.digest = r.res.Digest()
	r.records = recordsDigest(r.res.Records())
	return r
}

// errSetupDone aborts a setup probe from inside its Observe callback.
type errSetupDone struct{}

// probeSetup measures one scenario's setup span: from scenario resolution to
// the first Config.Observe call, when every shard's network, environment and
// protocol exist and no flow has started. Run is abandoned from that
// callback; nothing runs on other goroutines yet, so the panic unwinds
// cleanly.
func probeSetup(sc scenario.Scenario, shards int) (d time.Duration) {
	t0 := time.Now()
	sem, spec, err := experiments.FromScenario(&sc)
	if err != nil {
		panic(fmt.Sprintf("perfbench: scenario %s: %v", label(sc), err))
	}
	cfg := experiments.Config{Shards: shards}.ForScenario(sem)
	cfg.Observe = func(*netem.Network, *transport.Env, transport.Protocol) {
		d = time.Since(t0)
		panic(errSetupDone{})
	}
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(errSetupDone); !ok {
				panic(v)
			}
		}
	}()
	experiments.Run(cfg, spec)
	panic("perfbench: Run returned without calling Observe")
}

// buildOnly times the topology build of one scenario through the public
// catalogue calls Run itself makes.
func buildOnly(sc scenario.Scenario, shards int) time.Duration {
	sem, spec, err := experiments.FromScenario(&sc)
	if err != nil {
		panic(err)
	}
	scheme, err := experiments.MakeScheme(spec.Scheme)
	if err != nil {
		panic(err)
	}
	topo, err := experiments.ResolveTopo(spec.Topo)
	if err != nil {
		panic(err)
	}
	buffer := spec.Buffer
	if buffer <= 0 {
		buffer = netem.DefaultBuffer
	}
	sched := sem.Scheduler
	if sched == "" {
		sched = sim.DefaultScheduler
	}
	t0 := time.Now()
	if n := netem.ShardCount(topo.Spec, shards); shards > 1 && n > 1 {
		netem.BuildShardedClos(topo.Spec, n, sched, scheme.Factory(buffer), netem.WireSizeFor(scheme.MSS))
	} else {
		topo.Build(scheme.Factory(buffer), netem.WireSizeFor(scheme.MSS), sched)
	}
	return time.Since(t0)
}

// genTrace regenerates a run's flow trace with the parameters Run derives
// for it: the Poisson arrivals plus any incast.
func genTrace(sc scenario.Scenario) []workload.FlowSpec {
	sem, spec, err := experiments.FromScenario(&sc)
	if err != nil {
		panic(err)
	}
	topo, err := experiments.ResolveTopo(spec.Topo)
	if err != nil {
		panic(err)
	}
	var trace []workload.FlowSpec
	if spec.Workload != nil {
		flows := spec.Flows
		if flows <= 0 {
			flows = min(max(int(float64(sem.Budget)/spec.Workload.Mean()), sem.MinFlows), sem.MaxFlows)
		}
		pc := workload.PoissonConfig{
			CDF: spec.Workload, Hosts: topo.Hosts(), HostRate: topo.Spec.HostRate,
			Load: topo.EdgeLoad(spec.CoreLoad), Flows: flows,
			Seed: sem.Seed ^ spec.Scheme.Seed, StartAt: sim.Time(10 * sim.Microsecond),
		}
		trace = pc.Generate()
	}
	if spec.Incast != nil {
		ic := *spec.Incast
		ic.Hosts = topo.Hosts()
		ic.BaseID = uint64(len(trace)) + 1000000
		trace = workload.Merge(trace, ic.Generate())
	}
	return trace
}

// summarize repeats the metric extraction Run performs on a run's records.
func summarize(recs []stats.FlowRecord) {
	stats.Summarize(recs)
	var small []stats.FlowRecord
	for _, r := range recs {
		if r.Size < 100_000 {
			small = append(small, r)
		}
	}
	stats.Summarize(small)
	stats.FCTCDF(small)
}

func label(sc scenario.Scenario) string {
	s := sc.Scheme + "@" + sc.Topo
	if sc.Workload != nil {
		s += "/" + sc.Workload.Name
	}
	if sc.Incast != nil {
		s += fmt.Sprintf("/incast%d", sc.Incast.Fanin)
	}
	if sc.CoreLoad > 0 {
		s += fmt.Sprintf("/l%g", sc.CoreLoad)
	}
	return s
}
