package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"time"
)

// ledger is a committed record of benchmark runs on one commit: one set
// per ffbench -repeat invocation, each with the machine it ran on.
type ledger struct {
	Commit string      `json:"commit"`
	Sets   []ledgerSet `json:"sets"`
}

type ledgerSet struct {
	Date       string      `json:"date"`
	Host       string      `json:"host"`
	CPU        string      `json:"cpu_model"`
	Go         string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NProc      int         `json:"nproc"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Traced     bool        `json:"traced"`
	Runs       []ledgerRun `json:"runs"`
}

type ledgerRun struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Round     int                `json:"round"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// appendLedger adds one set of runs to the ledger at path, creating it.
func appendLedger(path, commit string, e env, runs []ledgerRun) error {
	var l ledger
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &l); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if commit != "" {
		l.Commit = commit
	}
	host, cpu := describeEnv()
	l.Sets = append(l.Sets, ledgerSet{
		Date: time.Now().UTC().Format(time.RFC3339), Host: host, CPU: cpu, Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: e.nproc, Seed: e.seed, Seconds: e.seconds,
		Traced: e.traced, Runs: runs,
	})
	out, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// describeEnv names the machine a ledger set ran on.
func describeEnv() (host, cpu string) {
	host, _ = os.Hostname()
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return host, strings.TrimSpace(v)
			}
		}
	}
	return host, runtime.GOARCH
}
