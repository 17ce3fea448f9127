package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// jobs is the -j every in-process pool and the server run with:
// min(nproc, 4), recorded in every output.
func jobs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// environment is what every output JSON records about where it ran.
type environment struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"nproc"`
	Jobs      int    `json:"j"`
}

func currentEnvironment() environment {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Jobs: jobs()}
}

// moduleRoot finds the repository root (the directory holding go.mod) from
// the working directory upwards: the server is built from there.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above the working directory: run the benchmark from inside the repository")
		}
		dir = parent
	}
}

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS sets VmHWM back to the current resident set. Where the
// kernel refuses the write, VmHWM stays the process's peak so far, which
// is what peak_rss_mb then reports.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// dirMB sums the regular files under dir, skipping the subtree named skip
// (relative to dir; empty skips nothing).
func dirMB(dir, skip string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip != "" && path == filepath.Join(dir, skip) {
				return filepath.SkipDir
			}
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return float64(total) / (1 << 20), err
}

// hostProbes times three fixed pieces of work that touch none of the
// repository's code, so a reader can tell a slow host from a slow commit:
// an arithmetic loop, a sweep over 32 MB, and the first touch of fresh
// pages.
type hostProbes struct {
	SpinS     float64 `json:"spin_s"`
	MemtouchS float64 `json:"memtouch_s"`
	FaultS    float64 `json:"fault_s"`
}

var hostSink uint64

const hostFaultBytes = 256 << 20

func runHostProbes() (hostProbes, error) {
	var p hostProbes

	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 60_000_000; i++ { // xorshift: serial dependency, no memory
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	hostSink += x
	p.SpinS = time.Since(start).Seconds()

	buf := make([]uint64, 32<<20/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	start = time.Now()
	var sum uint64
	for pass := 0; pass < 8; pass++ {
		for _, v := range buf {
			sum += v
		}
	}
	hostSink += sum
	p.MemtouchS = time.Since(start).Seconds()

	start = time.Now()
	mem, err := syscall.Mmap(-1, 0, hostFaultBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return p, fmt.Errorf("host.fault probe: mmap: %w", err)
	}
	for off := 0; off < len(mem); off += 4096 {
		mem[off] = 1
	}
	p.FaultS = time.Since(start).Seconds()
	if err := syscall.Munmap(mem); err != nil {
		return p, fmt.Errorf("host.fault probe: munmap: %w", err)
	}
	return p, nil
}
