package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meta describes the machine a result was measured on.
type meta struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealS     float64 `json:"steal_s"`
}

func machineMeta(steal float64) meta {
	return meta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StealS:     steal,
	}
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

// userHZ is the kernel's clock-tick rate for /proc/stat, fixed at 100 on
// Linux for every architecture Go supports.
const userHZ = 100

// stealSeconds returns the host's cumulative CPU steal time, summed over
// all CPUs, from the eighth field of /proc/stat's "cpu" line; 0 where the
// file is unavailable. Steal is time a hypervisor ran someone else on
// this machine's CPUs, so a nonzero delta over a run marks it as noisy.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / userHZ
}

// cpuTime is the process's CPU time so far, user plus system, over all
// threads: the garbage collector's work on other cores included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcStats are Go runtime counters over one measured phase.
type gcStats struct {
	cycles     uint64
	cpuSeconds float64
	allocBytes uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readGC() gcStats {
	s := make([]metrics.Sample, len(gcSamples))
	copy(s, gcSamples)
	metrics.Read(s)
	return gcStats{
		cycles:     s[0].Value.Uint64(),
		cpuSeconds: s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

func (g gcStats) since(prev gcStats) gcStats {
	return gcStats{
		cycles:     g.cycles - prev.cycles,
		cpuSeconds: g.cpuSeconds - prev.cpuSeconds,
		allocBytes: g.allocBytes - prev.allocBytes,
	}
}

func (g gcStats) plus(o gcStats) gcStats {
	return gcStats{
		cycles:     g.cycles + o.cycles,
		cpuSeconds: g.cpuSeconds + o.cpuSeconds,
		allocBytes: g.allocBytes + o.allocBytes,
	}
}

// phase measures host time, process CPU time and Go runtime counters over
// one stretch of a repetition.
type phase struct {
	start time.Time
	cpu   time.Duration
	gc    gcStats
}

func startPhase() phase {
	return phase{gc: readGC(), cpu: cpuTime(), start: time.Now()}
}

func (p phase) stop() (host, cpu time.Duration, gc gcStats) {
	host = time.Since(p.start)
	cpu = cpuTime() - p.cpu
	gc = readGC().since(p.gc)
	return host, cpu, gc
}
