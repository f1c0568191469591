package main

import "fmt"

// runCheck gathers, for one scenario of a workload, everything the
// correctness checks compare across the invocation's executions of it.
type runCheck struct {
	label, scheme    string
	incastFanin      int
	total, completed int      // completed is the fewest over all executions
	digests          []string // untraced repetitions, in order
	traced           string   // traced repetition; "" if none ran
	twin             string   // the other execution mode; "" if not checked
	records          string   // flow-record digest of the first repetition
	audited          bool
	auditRecords     string
	auditViolations  int
	auditOverLimit   bool
}

// failure is one failed run. known names the open defect it reproduces, if
// it matches one documented in README.md; an unknown failure makes the
// invocation's outputs incorrect.
type failure struct {
	run, reason, known string
}

const (
	knownShardDivergence = "shard divergence (ROADMAP item 2)"
	knownPrioAuditHang   = "xpass+prio audit hang (ROADMAP item 5)"
	knownHomaIncastStall = "Homa 128-to-1 incast stall (ROADMAP item 5)"
)

// failures returns the checks c fails; a run fails if any one holds.
func (c *runCheck) failures() []failure {
	var out []failure
	add := func(reason, known string) { out = append(out, failure{c.label, reason, known}) }
	if c.completed < c.total {
		known := ""
		if c.scheme == "homa" && c.incastFanin >= 128 {
			known = knownHomaIncastStall
		}
		add(fmt.Sprintf("incomplete: %d of %d flows", c.completed, c.total), known)
	}
	for i, d := range c.digests[1:] {
		if d != c.digests[0] {
			add(fmt.Sprintf("digest of repetition %d differs from repetition 0", i+1), "")
			break
		}
	}
	if c.traced != "" && c.traced != c.digests[0] {
		add("traced digest differs from untraced", "")
	}
	if c.twin != "" && c.twin != c.digests[0] {
		add("digest differs from the twin execution mode", knownShardDivergence)
	}
	if c.audited {
		switch {
		case c.auditOverLimit:
			known := ""
			if c.scheme == "xpass+prio" {
				known = knownPrioAuditHang
			}
			add("audited run exceeded its wall-clock limit", known)
		case c.auditViolations > 0:
			add(fmt.Sprintf("audit found %d violations", c.auditViolations), "")
		case c.auditRecords != c.records:
			add("audited flow records differ from the timed run's", "")
		}
	}
	return out
}

// verdict is an invocation's outcome over all its runs: a run counts once
// however many checks it fails.
type verdict struct {
	attempted, failed int
	failures          []failure
	correct           bool // no failure outside the known defects
}

func judge(checks []runCheck) verdict {
	v := verdict{attempted: len(checks), correct: true}
	for i := range checks {
		fs := checks[i].failures()
		if len(fs) > 0 {
			v.failed++
		}
		for _, f := range fs {
			if f.known == "" {
				v.correct = false
			}
		}
		v.failures = append(v.failures, fs...)
	}
	return v
}

func (v verdict) failFrac() float64 { return float64(v.failed) / float64(v.attempted) }
