package expt

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"testing"
)

// TestMain removes the recorded suite's artifacts once every test has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if suiteDir != "" {
		os.RemoveAll(suiteDir)
	}
	os.Exit(code)
}

// allFigures regenerates every figure and table into w, in the grainbench
// step order, each followed by its runtime-metrics footer, and ends with
// the what-if tables, as grainbench -whatif does.
func allFigures(w io.Writer) error {
	for _, f := range append(slices.Clone(Figures), WhatIfFigure) {
		runs, err := f.Run(w, 48)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		WriteFooter(w, runs)
		fmt.Fprintln(w)
	}
	return nil
}

// regenerate renders every figure at the given parallelism with a cold memo
// cache and runtime-metrics footers on, returning the bytes produced and
// the number of simulations that actually executed.
func regenerate(t *testing.T, jobs int) ([]byte, uint64) {
	t.Helper()
	ResetMemo()
	setJobs(t, jobs)
	var buf bytes.Buffer
	if err := allFigures(&buf); err != nil {
		t.Fatalf("-j %d: %v", jobs, err)
	}
	sims, _ := MemoStats()
	return buf.Bytes(), sims
}

// setJobs sets the parallelism for the rest of t, and restores it when t
// ends.
func setJobs(t testing.TB, jobs int) {
	prev := parallelism()
	t.Cleanup(func() { SetParallelism(prev) })
	SetParallelism(jobs)
}

// recordedSuite is the figure suite simulated once per test binary: one
// live -j 1 pass of allFigures with a cold memo, every keyed run recorded
// as an artifact. The determinism, record/replay, facts and shape tests
// read it instead of each simulating the suite again.
type recordedSuite struct {
	out                []byte // allFigures' output, footers included
	sims               uint64 // keyed simulations the pass executed
	recorded, replayed uint64 // FactStats after the pass
	dir                string // the pass's artifacts, one per keyed run
}

// suiteDir is the recorded suite's artifact directory, which TestMain
// removes; empty until the suite is built.
var suiteDir string

var buildSuite = sync.OnceValues(func() (*recordedSuite, error) {
	dir, err := os.MkdirTemp("", "expt-suite-")
	if err != nil {
		return nil, err
	}
	suiteDir = dir
	prevJobs := parallelism()
	prevRec, prevRep := artifactDirs()
	defer func() { SetParallelism(prevJobs); SetRecordDir(prevRec); SetReplayDir(prevRep); ResetMemo() }()
	ResetMemo()
	SetParallelism(1)
	SetRecordDir(dir)
	SetReplayDir("")
	var buf bytes.Buffer
	if err := allFigures(&buf); err != nil {
		return nil, err
	}
	s := &recordedSuite{out: buf.Bytes(), dir: dir}
	s.sims, _ = MemoStats()
	s.recorded, s.replayed = FactStats()
	return s, nil
})

// figureSuite returns the recorded suite, building it on first use. Under
// -short there is none, and t is skipped.
func figureSuite(t *testing.T) *recordedSuite {
	t.Helper()
	if testing.Short() {
		t.Skip("simulates the whole figure suite; skipped in -short")
	}
	s, err := buildSuite()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// replaySuite makes t's runs replay the recorded suite's artifacts, so a
// shape test reads its figure without simulating it, and checks at cleanup
// that no keyed simulation ran since the last ResetMemo. Under -short
// there is no recorded suite, and the runs stay live.
func replaySuite(t *testing.T) {
	t.Helper()
	if testing.Short() {
		return
	}
	dir := figureSuite(t).dir
	_, prevRep := artifactDirs()
	ResetMemo()
	SetReplayDir(dir)
	t.Cleanup(func() {
		SetReplayDir(prevRep)
		ResetArtifactMemo()
		if sims, _ := MemoStats(); sims != 0 {
			t.Errorf("replaying the recorded suite executed %d keyed simulations, want 0", sims)
		}
	})
}

// TestFiguresDeterministicAcrossParallelism is the engine's headline
// guarantee: the full figure set — tables, sparklines, what-if tables and
// runtime-metrics footers — is byte-identical at -j 1 (strict serial
// fallback, the recorded suite) and -j 8 (pooled execution, live with a
// cold memo), and both sides execute the same number of simulations.
func TestFiguresDeterministicAcrossParallelism(t *testing.T) {
	serial := figureSuite(t)
	defer ResetMemo()
	parallel, parallelSims := regenerate(t, 8)

	requireSame(t, "-j 1 and -j 8 outputs", serial.out, parallel)
	if serial.sims != parallelSims {
		t.Errorf("simulation counts differ: %d at -j 1, %d at -j 8", serial.sims, parallelSims)
	}
	if serial.sims == 0 {
		t.Error("no simulations executed; memo reset did not take effect")
	}
}

// TestSingleFigureDeterministicShort keeps a fast determinism check in
// -short runs: the Sort table at -j 1 vs -j 8. Without -short it replays
// the recorded suite, so it checks the analysis alone;
// TestFiguresDeterministicAcrossParallelism covers the simulations.
func TestSingleFigureDeterministicShort(t *testing.T) {
	replaySuite(t)
	sameAtJ1AndJ8(t, figureByID(t, "sort"))
}

// sameAtJ1AndJ8 renders f with a cold memo at -j 1 and at -j 8, fails t
// unless the outputs are byte-identical, and returns the output.
func sameAtJ1AndJ8(t *testing.T, f Figure) []byte {
	t.Helper()
	defer ResetMemo()
	var out [2]bytes.Buffer
	for i, jobs := range []int{1, 8} {
		ResetMemo()
		setJobs(t, jobs)
		if _, err := f.Run(&out[i], 48); err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
	}
	requireSame(t, "-j 1 and -j 8 outputs", out[0].Bytes(), out[1].Bytes())
	return out[0].Bytes()
}

// requireSame fails t unless a and b are byte-identical, quoting the first
// line where they differ; what names them, a first.
func requireSame(t testing.TB, what string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	d := 0
	for d < len(la) && d < len(lb) && bytes.Equal(la[d], lb[d]) {
		d++
	}
	line := func(lines [][]byte) []byte {
		if d < len(lines) {
			return lines[d]
		}
		return nil
	}
	t.Fatalf("%s differ (first differing line %d):\n%q\n%q", what, d, line(la), line(lb))
}
