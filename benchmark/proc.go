package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockBase anchors the process's one monotonic clock: loader spans and
// trace events are both stamped with now(), so they compare.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// rusage is the slice of getrusage(RUSAGE_SELF) the benchmark reports.
type rusage struct {
	cpu         time.Duration // user + system
	ctxSwitches int64         // voluntary + involuntary
}

func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{} // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return rusage{
		cpu:         tv(ru.Utime) + tv(ru.Stime),
		ctxSwitches: int64(ru.Nvcsw) + int64(ru.Nivcsw),
	}
}

// peakRSSMB is this process image's peak resident set, from VmHWM in
// /proc/self/status. getrusage's ru_maxrss would not do: across fork and exec
// it keeps the parent's peak, and the parent is this benchmark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memDelta is the runtime's allocation and GC activity over an interval.
type memDelta struct {
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	goroutines int
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		gcPause:    time.Duration(m.PauseTotalNs),
		goroutines: runtime.NumGoroutine(),
	}
}

func (a memDelta) sub(b memDelta) memDelta {
	return memDelta{
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcPause:    a.gcPause - b.gcPause,
		goroutines: a.goroutines,
	}
}

// pinProcs pins GOMAXPROCS to min(nproc, 4) and returns it: the loader and
// the system under test share those threads and no more.
func pinProcs() int {
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	runtime.GOMAXPROCS(p)
	return p
}

// host is the honesty record: what the numbers were measured on.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	// Noisy is set when the 1-minute load average at start exceeded 1.0:
	// something else was using the machine.
	Noisy bool `json:"noisy"`
}

func readHost(gomaxprocs int) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs,
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GitCommit:  "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if c := gitCommit(); c != "" {
		h.GitCommit = c
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	h.Noisy = h.LoadAvg1 > 1.0
	return h
}

// gitCommit reads HEAD's commit from .git in the working directory without
// running git; a checkout that is not a repository has none.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	short := func(sha string) string {
		if len(sha) > 12 {
			sha = sha[:12]
		}
		return sha
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return short(ref)
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return short(strings.TrimSpace(string(b)))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return short(sha)
			}
		}
	}
	return ""
}
