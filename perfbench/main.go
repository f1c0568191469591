// Command perfbench is the simulator's benchmark. It runs one named workload
// from a seed, checks the simulator's outputs, prints every metric by name
// and unit, and ends with one JSON result line:
//
//	python3 perfbench/run.py --workload scale-h64 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// runs; --trace 1 runs the workload once more under layer decorators and
// prints the per-layer metrics. README.md in this directory catalogues the
// workloads, the metrics and the known failures.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
)

// An invocation sets its scenarios up at least setupProbes times, and at
// least setupSamples scenarios in all, to measure setup_s; it reports the
// median pass. One setup of a scale workload takes under a millisecond and
// varies by half of that from one to the next, hence the many samples. Each probe
// starts from a collected heap, so a collection the previous probe left due
// does not land in it.
const (
	setupProbes  = 15
	setupSamples = 300
)

// maxReps bounds the timed repetitions of one invocation.
const maxReps = 32

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: scale-h64, paper-figs, scale-h256 or scale-h256-s2")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 30, "measure timed repetitions for at least this long (two at least)")
	trace := fl.Int("trace", 0, "1 = report per-layer metrics from a traced repetition; 0 = end-to-end metrics")
	commit := fl.String("commit", "none", "source revision to stamp on the result")
	compare := fl.String("compare", "", "compare two files of result lines, BASE,CANDIDATE, against the bounds in -spec")
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds (with -compare)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		return compareFiles(*compare, *specPath, w)
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Fprintf(w, "host %s\n", fingerprint(*commit))
	b := &bench{wl: wl, w: w, scns: wl.scenarios(*seed)}
	v, ms, err := b.measure(*seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range v.failures {
		known := "UNEXPECTED"
		if f.known != "" {
			known = "known: " + f.known
		}
		fmt.Fprintf(w, "FAILED %s: %s [%s]\n", f.run, f.reason, known)
	}
	fmt.Fprintf(w, "fail_frac = %.6g (%d failed / %d attempted runs)\n", v.failFrac(), v.failed, v.attempted)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-32s %18.9g %-6s %s\n", m.name, m.value, m.unit, m.base)
	}
	return printResult(w, v, ms)
}

// metric is one reported number. base, for a ratio, spells out its
// numerator and denominator.
type metric struct {
	name, unit string
	value      float64
	base       string
}

func printResult(w io.Writer, v verdict, ms []metric) int {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{v.correct, v.attempted, v.failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}

type bench struct {
	wl     workloadDef
	w      io.Writer
	scns   []scenario.Scenario
	checks []runCheck
}

// measure runs the invocation: setup probes, timed repetitions and, for a
// sharded workload, its sequential twin. A traced invocation adds the traced
// repetition, the traced sharded twin of a sequential workload that has one,
// and the audited check pass.
func (b *bench) measure(seconds float64, traced bool) (verdict, []metric, error) {
	b.checks = make([]runCheck, len(b.scns))
	for i, sc := range b.scns {
		b.checks[i] = runCheck{label: fmt.Sprintf("#%d %s", i, label(sc)), scheme: sc.Scheme}
		if sc.Incast != nil {
			b.checks[i].incastFanin = sc.Incast.Fanin
		}
	}
	setups := make([]float64, max(setupProbes, (setupSamples+len(b.scns)-1)/len(b.scns)))
	for k := range setups {
		for _, sc := range b.scns {
			runtime.GC()
			setups[k] += probeSetup(sc, b.wl.shards).Seconds()
		}
	}

	// An untraced invocation times at least two repetitions and goes on
	// until seconds have passed. A traced one times one; its traced
	// repetition is the second.
	var reps []passOut
	t0 := time.Now()
	done := func() bool {
		if traced {
			return len(reps) == 1
		}
		return len(reps) == maxReps || len(reps) >= 2 && time.Since(t0).Seconds() >= seconds
	}
	for !done() {
		p := pass(b.scns, b.wl.clients, b.wl.shards, modePlain, nil)
		b.record(p, func(c *runCheck, r *runOut) { c.digests = append(c.digests, r.digest) })
		reps = append(reps, p)
		fmt.Fprintf(b.w, "repetition %d: wall %.4f s, cpu %.4f s\n", len(reps)-1, p.wall.Seconds(), p.cpu.Seconds())
	}
	rss := peakRSSMB()
	fmt.Fprintf(b.w, "outcome_digest %s\n", outcomeDigest(reps[0]))

	var twin *passOut
	if b.wl.checkTwin {
		p := pass(b.scns, b.wl.clients, b.wl.twinShards, modePlain, nil)
		twin = &p
		b.record(p, func(c *runCheck, r *runOut) { c.twin = r.digest })
		fmt.Fprintf(b.w, "twin (shards=%d): wall %.4f s, cpu %.4f s\n", b.wl.twinShards, p.wall.Seconds(), p.cpu.Seconds())
	}
	if !traced {
		walls, cpus := make([]float64, len(reps)), make([]float64, len(reps))
		for i, p := range reps {
			walls[i], cpus[i] = p.wall.Seconds(), p.cpu.Seconds()
		}
		return judge(b.checks), []metric{
			{name: "wall_s", unit: "s", value: median(walls), base: fmt.Sprintf("median of %d repetitions", len(walls))},
			{name: "cpu_s", unit: "s", value: median(cpus), base: fmt.Sprintf("median of %d repetitions", len(cpus))},
			{name: "setup_s", unit: "s", value: median(setups), base: fmt.Sprintf("median of %d setup passes", len(setups))},
			{name: "peak_rss_mb", unit: "MB", value: rss},
		}, nil
	}

	// The traced invocation adds the traced repetition, the traced sharded
	// twin of a sequential workload that has one, and the audited pass.
	t := pass(b.scns, 1, b.wl.shards, modeTraced, nil)
	b.record(t, func(c *runCheck, r *runOut) { c.traced = r.digest })
	fmt.Fprintf(b.w, "traced repetition: busy %.4f s\n", busy(t).Seconds())
	var twinTraced *passOut
	if !b.wl.checkTwin && b.wl.twinShards > 1 {
		p := pass(b.scns, 1, b.wl.twinShards, modeTraced, nil)
		twinTraced = &p
		same := true
		for i := range p.runs {
			same = same && p.runs[i].digest == reps[0].runs[i].digest
		}
		fmt.Fprintf(b.w, "traced twin (shards=%d): busy %.4f s, digest equal to the sequential run's: %v\n",
			b.wl.twinShards, busy(p).Seconds(), same)
	}

	limits := make([]time.Duration, len(b.scns))
	for i := range limits {
		limits[i] = max(time.Second, 3*reps[0].runs[i].wall)
	}
	aud := pass(b.scns, b.wl.clients, b.wl.shards, modeAudited, limits)
	b.record(aud, func(c *runCheck, r *runOut) {
		c.audited, c.auditRecords, c.auditOverLimit = true, r.records, r.overLimit
		if r.res.Audit != nil {
			c.auditViolations = len(r.res.Audit.Violations)
		}
	})
	over, left := 0, 0
	for _, r := range aud.runs {
		if r.overLimit {
			over++
		}
		if r.abandoned {
			left++
		}
	}
	fmt.Fprintf(b.w, "audited pass: wall %.4f s, sim.events %d, %d runs over their limit, %d of them left running\n",
		aud.wall.Seconds(), events(aud), over, left)

	v := judge(b.checks)
	ms, err := b.layers(v, reps[0], t, twin, twinTraced, aud)
	return v, ms, err
}

// record folds every run of a pass into its scenario's checks.
func (b *bench) record(p passOut, f func(*runCheck, *runOut)) {
	for i := range p.runs {
		r := &p.runs[i]
		c := &b.checks[i]
		if c.records == "" {
			c.total, c.completed, c.records = r.res.Total, r.res.Completed, r.records
		}
		if !r.overLimit {
			c.completed = min(c.completed, r.res.Completed)
		}
		f(c, r)
	}
}

// outcomeDigest folds every run's RunResult.Digest, in declaration order.
func outcomeDigest(p passOut) string {
	h := sha256.New()
	for _, r := range p.runs {
		io.WriteString(h, r.digest)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// busy is the summed wall time of a pass's runs.
func busy(p passOut) time.Duration {
	var d time.Duration
	for _, r := range p.runs {
		d += r.wall
	}
	return d
}

func events(p passOut) uint64 {
	var n uint64
	for _, r := range p.runs {
		n += r.res.Events
	}
	return n
}

func ratio(name, unit string, num, den float64, numName, denName string) metric {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	return metric{name: name, unit: unit, value: v,
		base: fmt.Sprintf("= %s %.9g / %s %.9g", numName, num, denName, den)}
}

// layers computes the per-layer metrics from the untraced repetition u, the
// traced repetition t, the twin passes and the audited pass.
func (b *bench) layers(v verdict, u, t passOut, twin, twinTraced *passOut, aud passOut) ([]metric, error) {
	tot := &layerTracer{}
	for _, r := range t.runs {
		for _, tt := range r.tracers {
			tot.merge(tt)
		}
	}
	clock := clockNs()
	uBusy, tBusy := busy(u).Seconds(), busy(t).Seconds()
	netemS, transS := tot.selfSeconds(layerNetem), tot.selfSeconds(layerTransport)
	clockS := float64(tot.clockReads) * clock / 1e9

	var ev, slots, txPkts, allocated uint64
	var drops [netem.NumDropReasons]uint64
	var peak, timeouts, flows, small int
	var sent, delivered int64
	var firstRTT, stateBytes float64
	for i, r := range u.runs {
		ev += r.res.Events
		peak = max(peak, r.res.Sched.PeakPending)
		txPkts += r.res.TxPackets
		timeouts += r.res.TimeoutFlows
		flows += r.res.Total
		for k, d := range r.res.Drops {
			drops[k] += d
		}
		for _, n := range r.slots {
			slots += n
		}
		sent += r.sent
		delivered += r.delivered
		allocated += r.allocated
		n := 0
		for _, rec := range r.res.Records() {
			if rec.Size < 100_000 {
				n++
			}
		}
		small += n
		firstRTT += math.Round(r.res.FirstRTTFrac * float64(n))
		stateBytes += float64(t.runs[i].stateBytes)
	}

	// Standalone calls into the workload, stats and topology layers with
	// each run's own parameters and records.
	genS, sumS, buildS := make([]float64, 3), make([]float64, 3), make([]float64, 3)
	for k := range 3 {
		for i, sc := range b.scns {
			t0 := time.Now()
			trace := genTrace(sc)
			genS[k] += time.Since(t0).Seconds()
			if len(trace) != u.runs[i].res.Total {
				return nil, fmt.Errorf("%s: regenerated %d flows, the run had %d", b.checks[i].label, len(trace), u.runs[i].res.Total)
			}
			t0 = time.Now()
			summarize(u.runs[i].res.Records())
			sumS[k] += time.Since(t0).Seconds()
			buildS[k] += buildOnly(sc, b.wl.shards).Seconds()
		}
	}

	runWalls := make([]float64, len(u.runs))
	for i, r := range u.runs {
		runWalls[i] = r.wall.Seconds()
	}
	sort.Float64s(runWalls)

	ms := []metric{
		ratio("fail_frac", "ratio", float64(v.failed), float64(v.attempted), "failed", "attempted"),
		{name: "sim.events", unit: "count", value: float64(ev)},
		ratio("sim.events_per_s", "1/s", float64(ev), uBusy, "events", "busy_s"),
		{name: "sim.peak_pending", unit: "count", value: float64(peak), base: "max over runs"},
		{name: "sim.event_slots", unit: "count", value: float64(slots)},
		{name: "sim.residual_s", unit: "s", value: tBusy - netemS - transS - clockS,
			base: fmt.Sprintf("= traced busy %.6g - netem %.6g - transport %.6g - clock %.6g", tBusy, netemS, transS, clockS)},
	}
	ms = append(ms, b.shardMetrics(u, t, twin, twinTraced)...)
	ms = append(ms,
		metric{name: "netem.qdisc_calls", unit: "count", value: float64(tot.calls[layerNetem])},
		ratio("netem.qdisc_ns", "ns", netemS*1e9, float64(tot.calls[layerNetem]), "self_ns", "calls"),
		metric{name: "netem.tx_pkts", unit: "count", value: float64(txPkts)},
		metric{name: "netem.drops_tail", unit: "count", value: float64(drops[netem.DropTailFull])},
		metric{name: "netem.drops_selective", unit: "count", value: float64(drops[netem.DropSelective])},
		metric{name: "netem.drops_credit", unit: "count", value: float64(drops[netem.DropCreditOver])},
		metric{name: "netem.drops_trim_fail", unit: "count", value: float64(drops[netem.DropTrimFail])},
		metric{name: "netem.drops_impair", unit: "count", value: float64(drops[netem.DropImpairment])},
		metric{name: "netem.pkts_allocated", unit: "count", value: float64(allocated)},
		metric{name: "netem.build_s", unit: "s", value: median(buildS), base: "median of 3 standalone passes"},
		metric{name: "transport.rx_calls", unit: "count", value: float64(tot.calls[layerTransport])},
		ratio("transport.rx_ns", "ns", transS*1e9, float64(tot.calls[layerTransport]), "self_ns", "calls"),
		ratio("transport.efficiency", "ratio", float64(delivered), float64(sent), "delivered_bytes", "sent_bytes"),
		metric{name: "transport.timeout_flows", unit: "count", value: float64(timeouts)},
		ratio("transport.state_bytes_per_flow", "B", stateBytes, float64(flows), "retained_heap_bytes", "flows"),
		metric{name: "core.unsched_pkts", unit: "count", value: float64(tot.unschedPkts)},
		ratio("core.unsched_drop_frac", "ratio", float64(drops[netem.DropSelective]), float64(tot.unschedPkts), "selective_drops", "unsched_pkts"),
		metric{name: "core.probe_pkts", unit: "count", value: float64(tot.probePkts)},
		ratio("core.first_rtt_frac", "ratio", firstRTT, float64(small), "small_flows_in_first_rtt", "small_flows"),
		metric{name: "workload.gen_s", unit: "s", value: median(genS), base: "median of 3 standalone passes"},
		metric{name: "stats.summarize_s", unit: "s", value: median(sumS), base: "median of 3 standalone passes"},
		metric{name: "experiments.runs", unit: "count", value: float64(len(u.runs))},
		metric{name: "experiments.run_p50_s", unit: "s", value: median(runWalls)},
		metric{name: "experiments.run_max_s", unit: "s", value: runWalls[len(runWalls)-1]},
		ratio("experiments.worker_busy_frac", "ratio", uBusy, float64(b.wl.clients)*u.wall.Seconds(), "busy_s", "clients_x_wall_s"),
		ratio("audit.wall_ratio", "x", aud.wall.Seconds(), u.wall.Seconds(), "audited_wall_s", "timed_wall_s"),
		ratio("runtime.gc_cpu_frac", "ratio", u.rt.gcCPU, u.cpu.Seconds(), "gc_cpu_s", "process_cpu_s"),
		metric{name: "runtime.alloc_mb", unit: "MB", value: float64(u.rt.allocBytes) / (1 << 20)},
		metric{name: "runtime.gc_cycles", unit: "count", value: float64(u.rt.gcCycles)},
		metric{name: "trace.clock_ns", unit: "ns", value: clock},
		ratio("trace.overhead_x", "x", tBusy, uBusy, "traced_busy_s", "untraced_busy_s"),
	)
	return ms, nil
}

// shardMetrics describes the shard layer: from the workload's own runs when
// they are sharded, from its sharded twin otherwise. A workload with neither
// runs on the sequential engine alone, and its ratios read 1.
func (b *bench) shardMetrics(u, t passOut, twin, twinTraced *passOut) []metric {
	// Compare like with like: the untraced passes of a sharded workload and
	// its sequential twin, or the traced passes of a sequential workload and
	// its sharded twin.
	seqU, shU, shT := u, u, t
	switch {
	case twin != nil:
		seqU = *twin
	case twinTraced != nil:
		seqU, shU, shT = t, *twinTraced, *twinTraced
	}
	shards, maxEv, meanEv := 1, 1.0, 1.0
	for _, r := range shU.runs {
		if len(r.fired) < 2 {
			continue
		}
		var hi, sum float64
		for _, n := range r.fired {
			hi = max(hi, float64(n))
			sum += float64(n)
		}
		mean := sum / float64(len(r.fired))
		if hi/mean > maxEv/meanEv {
			maxEv, meanEv = hi, mean
		}
		shards = max(shards, len(r.fired))
	}
	var cross float64
	for _, r := range shT.runs {
		for _, tt := range r.tracers {
			cross += float64(tt.crossPkts)
		}
	}
	ms := []metric{
		{name: "shard.count", unit: "count", value: float64(shards)},
		ratio("shard.event_imbalance", "x", maxEv, meanEv, "max_shard_events", "mean_shard_events"),
		{name: "shard.cross_pkts", unit: "count", value: cross},
		ratio("shard.speedup", "x", busy(seqU).Seconds(), busy(shU).Seconds(), "sequential_busy_s", "sharded_busy_s"),
		ratio("shard.cpu_ratio", "x", shU.cpu.Seconds(), seqU.cpu.Seconds(), "sharded_cpu_s", "sequential_cpu_s"),
	}
	if twin == nil && twinTraced == nil {
		for i := range ms {
			ms[i].base = "(sequential engine only: no sharded twin)"
		}
	}
	return ms
}

// median is the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
