package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// provenance says what was measured, where and how. The source hash
// identifies the code when the checkout is not a git repository.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      string  `json:"dirty"`
	SourceHash string  `json:"source_sha256"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Time       string  `json:"time"`
}

func collectProvenance(cfg config) provenance {
	commit, dirty := gitState(cfg.root)
	return provenance{
		Commit:     commit,
		Dirty:      dirty,
		SourceHash: sourceHash(cfg.root),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitState returns HEAD and whether tracked files differ from it, or
// "unknown" for both outside a git checkout.
func gitState(root string) (commit, dirty string) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", "unknown"
	}
	head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", "unknown"
	}
	status, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return strings.TrimSpace(string(head)), "unknown"
	}
	if len(strings.TrimSpace(string(status))) > 0 {
		return strings.TrimSpace(string(head)), "yes"
	}
	return strings.TrimSpace(string(head)), "no"
}

// sourceHash hashes every Go source and module file under root (hidden
// directories such as .git and .bench_build excluded), in path order.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
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
