package kit

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ProcSample is a point-in-time reading of the process's own counters.
type ProcSample struct {
	Wall   time.Time
	CPU    time.Duration // user + system
	Allocs uint64        // heap objects allocated since start
	GCCPU  float64       // CPU seconds the runtime estimates GC used
}

var procMetrics = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

// ReadProc samples the process counters.
func ReadProc() ProcSample {
	s := ProcSample{Wall: time.Now(), CPU: cpuTime()}
	ms := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.Allocs = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.GCCPU = ms[1].Value.Float64()
	}
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// RSSMB returns the process's resident set size in MB (/proc/self/statm).
func RSSMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// PeakRSSMB returns the process's peak resident set size in MB.
func PeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// ProcDelta is what the process spent between two samples.
type ProcDelta struct {
	Wall   time.Duration
	CPU    time.Duration
	Allocs uint64
	GCCPU  float64
}

// Since returns the counters accumulated from an earlier sample to s.
func (s ProcSample) Since(b ProcSample) ProcDelta {
	return ProcDelta{Wall: s.Wall.Sub(b.Wall), CPU: s.CPU - b.CPU, Allocs: s.Allocs - b.Allocs,
		GCCPU: s.GCCPU - b.GCCPU}
}

// ProcTotals sums process counters over a run's measured segments, CPU
// time both as measured and scaled by each segment's speed factor.
type ProcTotals struct {
	Wall     time.Duration
	CPU      time.Duration
	ScaledUS float64
	Allocs   uint64
	GCCPU    float64
}

// Add counts one segment, whose times scale by factor.
func (t *ProcTotals) Add(d ProcDelta, factor float64) {
	t.Wall += d.Wall
	t.CPU += d.CPU
	t.ScaledUS += float64(d.CPU) / 1e3 * factor
	t.Allocs += d.Allocs
	t.GCCPU += d.GCCPU
}

// Put records the proc.* metrics of segments that completed ops
// operations on a machine with nproc CPUs.
func (t ProcTotals) Put(v map[string]float64, ops float64, nproc int) {
	v["proc.cpu_us_per_op"] = Ratio(t.ScaledUS, ops)
	v["proc.cpu_frac"] = Ratio(t.CPU.Seconds(), t.Wall.Seconds()*float64(nproc))
	v["proc.allocs_per_op"] = Ratio(float64(t.Allocs), ops)
	v["proc.gc_cpu_frac"] = Ratio(t.GCCPU, t.CPU.Seconds())
}
