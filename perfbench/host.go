package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/aeolus-transport/aeolus/internal/stats"
)

// fingerprint identifies the host and the code a result was measured on.
// The source digest covers every Go file and go.mod under the working
// directory, so results from a checkout without git history still name the
// code they measured.
func fingerprint(commit string) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest("."))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapSettled is the live heap after a full collection.
func heapSettled() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeDelta is the Go runtime's work over an interval.
type runtimeDelta struct {
	gcCPU      float64 // seconds, from runtime/metrics
	allocBytes uint64
	gcCycles   uint32
}

func snapRuntime() runtimeDelta {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{gcCPU: s[0].Value.Float64(), allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{gcCPU: a.gcCPU - b.gcCPU, allocBytes: a.allocBytes - b.allocBytes,
		gcCycles: a.gcCycles - b.gcCycles}
}

// recordsDigest hashes a run's flow records in completion order: the part of
// RunResult.Digest an audited run must reproduce (its drain changes the
// goodput and transmission totals by design).
func recordsDigest(recs []stats.FlowRecord) string {
	h := sha256.New()
	for _, r := range recs {
		_ = binary.Write(h, binary.LittleEndian, []int64{int64(r.ID), r.Size, int64(r.Start),
			int64(r.Finish), int64(r.IdealFCT), int64(r.Timeouts)})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
