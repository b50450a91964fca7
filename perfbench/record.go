package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// recordSchema versions the Record layout.
const recordSchema = 1

// Machine identifies the box a record was taken on. Records from
// different machines are never compared.
type Machine struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// sameMachine reports whether two records' machine identities match.
func (m Machine) sameMachine(o Machine) bool {
	return m.CPUModel == o.CPUModel && m.NumCPU == o.NumCPU &&
		m.GOMAXPROCS == o.GOMAXPROCS && m.GoVersion == o.GoVersion &&
		m.OS == o.OS && m.Arch == o.Arch
}

func (m Machine) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s %s/%s",
		m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.OS, m.Arch)
}

// thisMachine reads the identity of the running machine.
func thisMachine() Machine {
	return Machine{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo ("unknown"
// where the kernel does not expose one).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commitOf names the source revision: $BENCH_COMMIT when set, else the
// commit .git/HEAD resolves to under root, else "unknown" (a plain source
// checkout carries no revision).
func commitOf(root string) string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// Metric is one reported metric: the value the run reports (the median of
// its samples) plus the samples themselves.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Summary
}

// Record is the full account of one benchmark run, written as one JSON
// line by --record and read back by the compare mode.
type Record struct {
	Schema    int               `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Commit    string            `json:"commit"`
	Command   []string          `json:"command"`
	Machine   Machine           `json:"machine"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Output    string            `json:"output_sha256"`
	Metrics   map[string]Metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

// appendRecord appends r as one JSON line to path.
func appendRecord(path string, r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

// loadRecords reads a JSON-lines record file (one record per run; a file
// holding several runs is a run set).
func loadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s:%d: record schema %d, want %d", path, i+1, r.Schema, recordSchema)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}
