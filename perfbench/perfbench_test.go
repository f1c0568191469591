package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/aeolus-transport/aeolus/internal/experiments"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
)

// smallClos is a two-pod fabric small enough for a unit test that still
// splits into two shards with cross-shard links.
func smallClos() scenario.Scenario {
	cfg := experiments.DefaultConfig()
	sc := experiments.ScaleScenario(cfg, 4, 0.8)
	sc.Flows = 400
	return sc
}

// The decorators must be invisible to the simulation: same digest, same
// drop totals through netem.DropTotals, on the sequential engine and on
// per-shard tracers.
func TestDecoratorsPreserveDigestAndDrops(t *testing.T) {
	cases := []struct {
		name   string
		sc     scenario.Scenario
		shards int
	}{
		{"golden-xpass+aeolus", experiments.GoldenScenario("xpass+aeolus"), 1},
		{"golden-homa+aeolus", experiments.GoldenScenario("homa+aeolus"), 1},
		{"clos-2-shards", smallClos(), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain := runOne(c.sc, c.shards, modePlain, 0)
			traced := runOne(c.sc, c.shards, modeTraced, 0)
			if plain.digest != traced.digest {
				t.Fatalf("digest changed under tracing: %s vs %s", plain.digest, traced.digest)
			}
			if plain.res.Drops != traced.res.Drops || plain.portDrops != traced.portDrops {
				t.Fatalf("drop totals changed: %v/%v vs %v/%v",
					plain.res.Drops, plain.portDrops, traced.res.Drops, traced.portDrops)
			}
			if len(traced.tracers) != c.shards {
				t.Fatalf("%d tracers for %d shards", len(traced.tracers), c.shards)
			}
			tot := &layerTracer{}
			for _, tt := range traced.tracers {
				tot.merge(tt)
			}
			if tot.ports != traced.ports {
				t.Fatalf("shards wrap %d ports, the fabric has %d", tot.ports, traced.ports)
			}
			if tot.calls[layerNetem] == 0 || tot.calls[layerTransport] == 0 || tot.timed[layerNetem] == 0 {
				t.Fatalf("tracer saw nothing: %+v", tot)
			}
			if c.shards > 1 && tot.crossPkts == 0 {
				t.Fatal("no cross-shard enqueues counted on a sharded run")
			}
		})
	}
	// The golden incast overflows the threshold, so the drop comparison
	// above compared real counts.
	r := runOne(experiments.GoldenScenario("xpass+aeolus"), 1, modePlain, 0)
	if r.res.Drops[netem.DropSelective] == 0 {
		t.Fatal("golden xpass+aeolus run has no selective drops to compare")
	}
}

func TestFailuresCounted(t *testing.T) {
	ok := runCheck{label: "ok", scheme: "xpass", total: 10, completed: 10,
		digests: []string{"a", "a"}, records: "r", audited: true, auditRecords: "r"}
	mismatch := ok
	mismatch.label, mismatch.digests = "mismatch", []string{"a", "b"}
	over := ok
	over.label, over.auditOverLimit = "over", true

	v := judge([]runCheck{ok, mismatch, over})
	if v.attempted != 3 || v.failed != 2 || v.failFrac() != 2.0/3 || v.correct {
		t.Fatalf("judge = %+v, want 2 of 3 failed and incorrect", v)
	}

	// The documented prio audit hang still counts, but as a known defect.
	prio := over
	prio.scheme = "xpass+prio"
	if v := judge([]runCheck{ok, prio}); v.failed != 1 || !v.correct || v.failures[0].known != knownPrioAuditHang {
		t.Fatalf("judge = %+v, want one known failure", v)
	}

	// A real audited run over its limit is flagged by runOne.
	r := runOne(experiments.GoldenScenario("xpass"), 1, modeAudited, time.Nanosecond)
	if !r.overLimit {
		t.Fatal("audited run with a 1ns limit not flagged over limit")
	}
}

func TestCompareAAWithinBounds(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	runs := []float64{15.1, 14.8, 15.4, 15.0, 14.9, 15.2, 15.3, 15.0, 14.7, 15.1}
	spec := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	if c := compareMetric(spec, runs, runs); !c.within || c.worse != 0 {
		t.Fatalf("A/A comparison = %+v, want within bounds", c)
	}
	slower := make([]float64, len(runs))
	for i, v := range runs {
		slower[i] = v * 1.2
	}
	if c := compareMetric(spec, runs, slower); c.within {
		t.Fatalf("20%% slower candidate reported within a 10%% bound: %+v", c)
	}
}

// The benchmark prints exactly the metrics BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	wl := workloadDef{name: "golden", clients: 1, shards: 1,
		scenarios: func(uint64) []scenario.Scenario {
			return []scenario.Scenario{experiments.GoldenScenario("xpass+aeolus")}
		}}
	for _, traced := range []bool{false, true} {
		b := &bench{wl: wl, w: io.Discard, scns: wl.scenarios(1)}
		v, ms, err := b.measure(0, traced)
		if err != nil {
			t.Fatal(err)
		}
		if !v.correct || v.failed != 0 {
			t.Fatalf("golden run failed its checks: %+v", v.failures)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		var got, names []string
		for _, m := range ms {
			got = append(got, m.name+" "+m.unit)
		}
		for _, m := range want {
			names = append(names, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(names)
		if len(got) != len(names) {
			t.Fatalf("traced=%v: printed %v, BENCHMARK.json declares %v", traced, got, names)
		}
		for i := range got {
			if got[i] != names[i] {
				t.Fatalf("traced=%v: printed %q, BENCHMARK.json declares %q", traced, got[i], names[i])
			}
		}
	}
}
