package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostState samples how busy the machine is: the share of CPU time the
// hypervisor stole since the previous sample (from /proc/stat) and the
// bandwidth of copying 8 MiB, so an outlying run can be told apart from a
// slow host. Both are reported, neither is a metric.
type hostState struct {
	steal, total uint64
	CopyGiBps    float64 `json:"copy_GiBps"`
}

func sampleHost() hostState {
	var h hostState
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseUint(f, 10, 64)
			h.total += v
			if i == 7 {
				h.steal = v
			}
		}
	}
	src, dst := make([]byte, 8<<20), make([]byte, 8<<20)
	copy(dst, src) // fault the pages in before timing
	start := time.Now()
	for i := 0; i < 16; i++ {
		copy(dst, src)
	}
	h.CopyGiBps = 16 * 8.0 / 1024 / time.Since(start).Seconds()
	return h
}

// stealShare is the share of CPU time stolen between two samples.
func stealShare(a, b hostState) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// provenance stamps a result with where and how it was measured.
func provenance(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"cpu_model":   cpuModel(),
		"seed":        seed,
		"commit":      commit,
		"source_hash": sourceHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash is a SHA-256 over the Go sources and module files under root,
// which identifies the measured code when the checkout carries no commit.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
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
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
