package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
)

// provenance identifies the host and build a result came from.
type provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GOOS       string `json:"goos"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Slaves     int    `json:"slaves"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func newProvenance(slaves int, seed int64) provenance {
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GOOS:       runtime.GOOS,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Slaves:     slaves,
		Seed:       seed,
		Commit:     buildCommit(),
	}
}

func (p provenance) String() string {
	b, _ := json.Marshal(p) // plain fields: cannot fail
	return string(b)
}

// cpuModel reads the processor name from /proc/cpuinfo, "unknown" where the
// file is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildCommit returns the VCS revision the go command stamped into the
// binary, marked "+dirty" for a modified tree, or "unknown" when the source
// was not a repository checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Runtime metrics the benchmark samples.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU   = "/cpu/classes/total:cpu-seconds"
)

// allocBytes returns the cumulative bytes allocated on the Go heap. Unlike
// runtime.ReadMemStats it does not stop the world, so it is cheap enough to
// read around every operation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: mAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcSample is a reading of the collector's cumulative counters.
type gcSample struct {
	cycles       uint64
	gcCPU, total float64
}

func readGC() gcSample {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCCPU}, {Name: mAllCPU}}
	metrics.Read(s)
	return gcSample{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), total: s[2].Value.Float64()}
}

// gcSince returns the collector's cycles and its share of CPU time since
// the earlier sample.
func gcSince(before gcSample) (cycles float64, cpuFrac float64) {
	after := readGC()
	cycles = float64(after.cycles - before.cycles)
	if dt := after.total - before.total; dt > 0 {
		cpuFrac = (after.gcCPU - before.gcCPU) / dt
	}
	return cycles, cpuFrac
}
