package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// The A/B comparison: two sets of results for one workload, each a file of
// the JSON lines perfbench prints last (one line per run, one seed each),
// are compared metric by metric against the end-to-end bounds of
// BENCHMARK.json. A metric is within bounds when the interquartile spread of
// each side is no wider than its bound (setup_s excepted) and the
// candidate's median is not worse than the base's by more than the bound.

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (the default,
// "exclusive") and statistics.median.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	med = median(s)
	if n < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// comparison is the outcome for one metric.
type comparison struct {
	spec                   metricSpec
	baseMed, candMed       float64
	baseSpread, candSpread float64
	worse                  float64 // share by which the candidate is worse (negative: better)
	within                 bool
}

func compareMetric(spec metricSpec, base, cand []float64) comparison {
	c := comparison{spec: spec, baseSpread: spread(base), candSpread: spread(cand)}
	_, c.baseMed, _ = quartiles(base)
	_, c.candMed, _ = quartiles(cand)
	c.worse = (c.candMed - c.baseMed) / math.Abs(c.baseMed)
	if spec.Better == "higher" {
		c.worse = -c.worse
	}
	steady := spec.Name == "setup_s" || (c.baseSpread <= spec.Bound && c.candSpread <= spec.Bound)
	c.within = steady && c.worse <= spec.Bound
	return c
}

// readResults collects each metric's values from a file of result lines;
// lines that are not result objects (the human-readable report) are skipped.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
			continue
		}
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	return vals, sc.Err()
}

// compareFiles implements -compare BASE,CANDIDATE. It exits 0 only when
// every end-to-end metric is within its bound.
func compareFiles(pair, specPath string, w io.Writer) int {
	basePath, candPath, ok := strings.Cut(pair, ",")
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: -compare takes BASE,CANDIDATE")
		return 2
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", specPath, err)
		return 2
	}
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cand, err := readResults(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	status := 0
	for _, m := range spec.EndToEnd {
		if len(base[m.Name]) == 0 || len(cand[m.Name]) == 0 {
			fmt.Fprintf(w, "%-12s missing from one side\n", m.Name)
			status = 1
			continue
		}
		c := compareMetric(m, base[m.Name], cand[m.Name])
		word := "within bounds"
		if !c.within {
			word, status = "OUT OF BOUNDS", 1
		}
		fmt.Fprintf(w, "%-12s base %.6g (n=%d, spread %.3f)  candidate %.6g (n=%d, spread %.3f)  worse by %+.3f of base, bound %.2f: %s\n",
			m.Name, c.baseMed, len(base[m.Name]), c.baseSpread, c.candMed, len(cand[m.Name]), c.candSpread, c.worse, m.Bound, word)
	}
	return status
}
