package main

// The environment block recorded with every result file, and the
// process-level readings (peak resident set) the workloads report.

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"load_average_at_start"`
}

func readEnv() envBlock {
	return envBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		LoadAvg:    firstLine("/proc/loadavg"),
	}
}

// procField returns the value of the first "key : value" line of a
// /proc text file, or "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Off
// Linux it falls back to the memory the Go runtime obtained from the
// OS, which bounds the resident set from above.
func peakRSSMB() float64 {
	if v := procField("/proc/self/status", "VmHWM"); v != "" {
		if kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64); err == nil {
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
