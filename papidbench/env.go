package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// environment is what a result was measured on. Two results compare
// only when everything but the code under test matches.
type environment struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`      // git HEAD, or "none" outside a git checkout
	Source     string   `json:"source_hash"` // hash of the papid sources measured
	PapidFlags []string `json:"papid_flags"`
}

func captureEnv(root string, papidFlags []string) environment {
	return environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Source:     sourceHash(root),
		PapidFlags: papidFlags,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests go.mod and every .go file papid is built from, so
// a result names the code it measured even outside a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	var files []string
	for _, dir := range []string{"cmd/papid", "internal", "papi", "workload"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	slices.Sort(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// mismatch lists the environment fields on which a and b differ,
// ignoring the code under test (commit and source hash).
func (a environment) mismatch(b environment) []string {
	var out []string
	if a.GOMAXPROCS != b.GOMAXPROCS {
		out = append(out, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.NumCPU != b.NumCPU {
		out = append(out, fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.CPUModel != b.CPUModel {
		out = append(out, fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.GoVersion != b.GoVersion {
		out = append(out, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion))
	}
	if !slices.Equal(a.PapidFlags, b.PapidFlags) {
		out = append(out, fmt.Sprintf("papid flags %q vs %q", a.PapidFlags, b.PapidFlags))
	}
	return out
}

// result is one run's full record, written next to the build output
// so runs can be compared later with -compare.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Report    []line            `json:"report"`
	Failures  []string          `json:"failures,omitempty"`
	Flags     []string          `json:"flags,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func loadResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints every report line of two results side by side. It
// refuses results from different environments or workloads unless
// force is set.
func compare(w io.Writer, oldPath, newPath string, force bool) error {
	a, err := loadResult(oldPath)
	if err != nil {
		return err
	}
	b, err := loadResult(newPath)
	if err != nil {
		return err
	}
	bad := a.Env.mismatch(b.Env)
	if a.Workload != b.Workload {
		bad = append(bad, fmt.Sprintf("workload %s vs %s", a.Workload, b.Workload))
	}
	if a.Seconds != b.Seconds {
		bad = append(bad, fmt.Sprintf("run length %ds vs %ds", a.Seconds, b.Seconds))
	}
	if len(bad) > 0 {
		if !force {
			return fmt.Errorf("results are not comparable (use -force to compare anyway): %s", strings.Join(bad, "; "))
		}
		fmt.Fprintf(w, "WARNING: comparing across environments: %s\n", strings.Join(bad, "; "))
	}
	fmt.Fprintf(w, "workload %s: %s (commit %.12s) vs %s (commit %.12s)\n",
		a.Workload, oldPath, a.Env.Commit, newPath, b.Env.Commit)
	old := map[string]line{}
	for _, l := range a.Report {
		old[l.Name] = l
	}
	for _, l := range b.Report {
		o, ok := old[l.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s %14s %14.4f %s\n", l.Name, "-", l.Value, l.Unit)
			continue
		}
		delta := ""
		if o.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(l.Value-o.Value)/o.Value)
		}
		fmt.Fprintf(w, "%-40s %14.4f %14.4f %-6s %s\n", l.Name, o.Value, l.Value, l.Unit, delta)
	}
	return nil
}
