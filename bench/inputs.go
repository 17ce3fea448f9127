package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/runpool"
	"graingraph/internal/workloads"
)

// Input generation. Set-up that only produces inputs runs in a child
// process (`bench setup ...`) so that simulating and analysing the inputs
// does not inflate the measuring process's resident set.
//
// The seed drives the simulated scheduler's RNG (expt.Config.Seed): task
// placement, timing and therefore the artifact bytes differ per seed. It
// does not drive the giant tree's shape: tree size varies by ±3 % across
// shape seeds, which alone would exceed the bounds on stored_mb and
// alloc_mb_per_op when the driver compares runs made with different seeds.

const simulatedCores = 48

// servedPrograms are the P5 artifacts the serve workload loads next to the
// giant tree: the paper's five case-study programs, default variants.
var servedPrograms = []string{"sort", "fft", "strassen", "sparselu", "kdtree"}

func giantInstance(depth int) workloads.Instance {
	p := workloads.GiantUTSParams()
	p.FullDepth = depth
	return workloads.NewGiant(p)
}

// Artifact file names inside a set-up directory.
const (
	giantV1  = "giant.v1.ggp"
	giantV2S = "giant.v2s.ggp"
)

func programV1(name string) string { return name + ".v1.ggp" }

// setupInfo is what the set-up child reports on stdout.
type setupInfo struct {
	Grains int `json:"grains"`
	Nodes  int `json:"nodes"`
}

// cmdSetup is the child side: `bench setup -kind K -depth D -seed S -out DIR`.
//
//	giant      the giant tree as a v1 artifact
//	giant-v2s  additionally the same run as v2 with sidecars
//	serve      the giant tree and the five served programs, all v1
func cmdSetup(args []string) error {
	var (
		kind, out string
		depth     int
		seed      uint64
	)
	fs := flag.NewFlagSet("bench setup", flag.ContinueOnError)
	fs.StringVar(&kind, "kind", "giant", "giant | giant-v2s | serve")
	fs.StringVar(&out, "out", "", "output directory")
	fs.IntVar(&depth, "depth", giantDepth, "giant tree FullDepth")
	fs.Uint64Var(&seed, "seed", 1, "simulated scheduler seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if out == "" {
		return &exitError{2, "setup: -out is required"}
	}
	expt.SetParallelism(jobs())
	cfg := expt.Config{Cores: simulatedCores, Seed: seed}

	insts := []workloads.Instance{giantInstance(depth)}
	files := []string{giantV1}
	if kind == "serve" {
		for _, name := range servedPrograms {
			inst, err := workloads.Get(name, workloads.VariantDefault)
			if err != nil {
				return err
			}
			insts = append(insts, inst)
			files = append(files, programV1(name))
		}
	}
	results, err := runpool.Map(expt.Pool(), len(insts), func(i int) (*expt.Result, error) {
		res, err := expt.Run(insts[i], cfg)
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", insts[i].Name(), err)
		}
		if err := ggp.WriteFile(filepath.Join(out, files[i]), res.Trace); err != nil {
			return nil, fmt.Errorf("writing %s: %w", files[i], err)
		}
		return res, nil
	})
	if err != nil {
		return err
	}
	giant := results[0]
	if kind == "giant-v2s" {
		err := ggp.WriteFileV2(filepath.Join(out, giantV2S), giant.Trace, giant.Graph, expt.Sidecars(giant, expt.Pool()))
		if err != nil {
			return fmt.Errorf("writing %s: %w", giantV2S, err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(setupInfo{Grains: giant.Trace.NumGrains(), Nodes: giant.Graph.NumNodes()})
}

// generateInputs runs the set-up child and returns what it reported and
// how long it took, process start to exit.
func generateInputs(kind, dir string, depth int, seed uint64) (setupInfo, float64, error) {
	var info setupInfo
	self, err := os.Executable()
	if err != nil {
		return info, 0, err
	}
	start := time.Now()
	cmd := exec.Command(self, "setup", "-kind", kind, "-out", dir,
		"-depth", fmt.Sprint(depth), "-seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	took := time.Since(start).Seconds()
	if err != nil {
		return info, took, fmt.Errorf("set-up child (%s): %w", kind, err)
	}
	if err := json.Unmarshal(out, &info); err != nil {
		return info, took, fmt.Errorf("set-up child (%s) printed %q: %w", kind, out, err)
	}
	return info, took, nil
}

// setUpInputs runs the set-up child into a fresh scratch directory and
// returns the directory, what the child reported and how long it took.
// Set-up runs once per run: a G8 set-up alone takes 4 to 8 s of a run
// that has 30.
func setUpInputs(kind, tag string, depth int, seed uint64) (dir string, info setupInfo, took float64, err error) {
	if dir, err = scratchDir(tag); err != nil {
		return "", info, 0, err
	}
	info, took, err = generateInputs(kind, dir, depth, seed)
	return dir, info, took, err
}
