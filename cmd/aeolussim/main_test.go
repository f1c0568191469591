package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// AEOLUSSIM_ARGS set it runs main on those newline-separated arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("AEOLUSSIM_ARGS"); ok {
		os.Args = append([]string{"aeolussim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// aeolussim runs the command in a child process and returns its stdout,
// stderr and exit status.
func aeolussim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "AEOLUSSIM_ARGS="+strings.Join(args, "\n"))
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestFlagRunIsItsScenario pins the one validation path: a flag-driven run
// prints exactly what its dumped scenario prints when replayed, and flag
// values the scenario rejects never run.
func TestFlagRunIsItsScenario(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "micro", "-scheme", "homa+aeolus", "-incast", "4", "-msg", "20000"},
		{"-topo", "micro", "-scheme", "xpass", "-workload", "WebServer", "-flows", "60"},
	} {
		flagOut, stderr, code := aeolussim(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		dump, stderr, code := aeolussim(t, append(args, "-dump-scenario", "json")...)
		if code != 0 {
			t.Fatalf("%v -dump-scenario json: exit %d: %s", args, code, stderr)
		}
		path := filepath.Join(t.TempDir(), "run.json")
		if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
		replayOut, stderr, code := aeolussim(t, "-scenario", path)
		if code != 0 {
			t.Fatalf("%v replay: exit %d: %s", args, code, stderr)
		}
		if flagOut != replayOut {
			t.Errorf("%v: flag run and scenario replay differ:\nflags:\n%s\nreplay:\n%s", args, flagOut, replayOut)
		}
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-topo", "micro", "-incast", "4", "-msg", "-5"}, "scenario: incast msg size -5"},
		{[]string{"-topo", "micro", "-incast", "4", "-msg", "0"}, "scenario: incast msg size 0"},
		{[]string{"-topo", "micro", "-workload", "WebServer", "-flows", "-4"}, "scenario: negative flow budget"},
		{[]string{"-topo", "micro", "-incast", "2", "-rto", "-1"}, "scenario: negative rto -1us"},
		{[]string{"-topo", "clos:1,hosts=1", "-incast", "2"}, "experiments: topology clos:1,hosts=1 has 1 host(s)"},
	} {
		stdout, stderr, code := aeolussim(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%v: rejected run printed results:\n%s", tc.args, stdout)
		}
	}
}
