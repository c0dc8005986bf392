// Package runmeta is the shared observability harness for the run
// binaries, ffsim and ffrelayd: it registers the -manifest, -pprof,
// -cpuprofile and -memprofile flags, owns the obs.Registry for the run,
// and writes the JSON run manifest (schema
// "fastforward/run-manifest/v1") that OBSERVABILITY.md documents.
//
// Usage in a main:
//
//	func main() {
//		seed := flag.Int64("seed", 1, "...")
//		flag.Parse()            // runmeta's flags are registered by import
//		run := runmeta.Begin("ffsim")
//		cfg.Obs = run.Registry() // nil unless -manifest was given
//		... do the work ...
//		run.Finish(*seed, workers)
//	}
//
// The manifest's "metrics" section is bit-identical for any -workers
// value (see internal/obs); "timings", "started_at" and "wall_clock_s"
// are wall-clock measurements and are explicitly NOT deterministic.
package runmeta

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"fastforward/internal/obs"
)

var (
	manifestPath = flag.String("manifest", "", "write a JSON run manifest to this path (enables metrics collection)")
	pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile   = flag.String("memprofile", "", "write a heap profile to this path at exit")
)

// Manifest is the on-disk shape of a run manifest. Field order here is
// the serialization order; OBSERVABILITY.md documents each field.
type Manifest struct {
	Schema     string                        `json:"schema"`
	Binary     string                        `json:"binary"`
	Argv       []string                      `json:"argv"`
	GoVersion  string                        `json:"go_version"`
	Git        string                        `json:"git,omitempty"`
	Seed       int64                         `json:"seed"`
	Workers    int                           `json:"workers"`
	Config     map[string]string             `json:"config"`
	StartedAt  string                        `json:"started_at"`
	WallClockS float64                       `json:"wall_clock_s"`
	Metrics    map[string]obs.MetricSnapshot `json:"metrics"`
	Timings    []obs.StageTiming             `json:"timings"`
}

// SchemaID identifies the manifest format; bump the suffix on any
// incompatible change to Manifest or obs.MetricSnapshot.
const SchemaID = "fastforward/run-manifest/v1"

// Run carries the state between Begin and Finish.
type Run struct {
	binary string
	reg    *obs.Registry
	start  time.Time
	cpu    *os.File
}

// Begin starts the harness. Call it after flag.Parse: it creates the
// metrics registry when -manifest was given, starts the CPU profile and
// the pprof debug server when requested, and records the start time.
func Begin(binary string) *Run {
	r := &Run{binary: binary, start: time.Now()}
	if *manifestPath != "" {
		r.reg = obs.New()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		r.cpu = f
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
	}
	return r
}

// Registry returns the run's metric registry; nil (observability
// disabled, every recording a no-op) unless -manifest was given.
func (r *Run) Registry() *obs.Registry { return r.reg }

// Finish stops the profiles and writes the manifest (when requested).
// seed and workers are echoed into the manifest so a reader can replay
// the run; pass the values the binary actually used.
func (r *Run) Finish(seed int64, workers int) {
	if r.cpu != nil {
		pprof.StopCPUProfile()
		r.cpu.Close()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("memprofile: %v", err)
		}
		f.Close()
	}
	if *manifestPath == "" {
		return
	}
	snap := r.reg.Snapshot()
	m := Manifest{
		Schema:     SchemaID,
		Binary:     r.binary,
		Argv:       os.Args,
		GoVersion:  runtime.Version(),
		Git:        gitDescribe(),
		Seed:       seed,
		Workers:    workers,
		Config:     flagValues(),
		StartedAt:  r.start.UTC().Format(time.RFC3339),
		WallClockS: time.Since(r.start).Seconds(),
		Metrics:    snap.Metrics,
		Timings:    snap.Timings,
	}
	buf, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		fatal("manifest: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*manifestPath, buf, 0o644); err != nil {
		fatal("manifest: %v", err)
	}
}

// flagValues snapshots every flag's final value (defaults included), so
// the manifest records the full effective configuration, not just what
// was typed on the command line.
func flagValues() map[string]string {
	out := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) {
		out[f.Name] = f.Value.String()
	})
	return out
}

// gitDescribe best-efforts a source identity: the VCS stamp baked into
// the binary when built with -buildvcs, else `git describe` run in the
// current directory, else empty (the field is omitted from the JSON).
func gitDescribe() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "runmeta: "+format+"\n", args...)
	os.Exit(1)
}
