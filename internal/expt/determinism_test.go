package expt

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// allFigures regenerates every figure and table into w, in the grainbench
// step order, each followed by its runtime-metrics footer.
func allFigures(w io.Writer) error {
	for _, f := range Figures {
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
	SetParallelism(jobs)
	simBefore, _ := MemoStats()
	var buf bytes.Buffer
	if err := allFigures(&buf); err != nil {
		t.Fatalf("-j %d: %v", jobs, err)
	}
	sim, _ := MemoStats()
	return buf.Bytes(), sim - simBefore
}

// TestFiguresDeterministicAcrossParallelism is the engine's headline
// guarantee: the full figure set — tables, sparklines and runtime-metrics
// footers — is byte-identical at -j 1 (strict serial fallback) and -j 8
// (pooled execution), and both sides execute the same number of
// simulations.
func TestFiguresDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure twice; skipped in -short")
	}
	prev := parallelism()
	defer func() { SetParallelism(prev); ResetMemo() }()

	serial, serialSims := regenerate(t, 1)
	parallel, parallelSims := regenerate(t, 8)

	if !bytes.Equal(serial, parallel) {
		d := diffLine(serial, parallel)
		t.Fatalf("-j 1 and -j 8 outputs differ (first differing line %d):\nserial:   %q\nparallel: %q",
			d, lineAt(serial, d), lineAt(parallel, d))
	}
	if serialSims != parallelSims {
		t.Errorf("simulation counts differ: %d at -j 1, %d at -j 8", serialSims, parallelSims)
	}
	if serialSims == 0 {
		t.Error("no simulations executed; memo reset did not take effect")
	}
}

// TestSingleFigureDeterministicShort keeps a fast determinism check in
// -short runs: the Sort table at -j 1 vs -j 8.
func TestSingleFigureDeterministicShort(t *testing.T) {
	prev := parallelism()
	defer func() { SetParallelism(prev); ResetMemo() }()

	render := func(jobs int) []byte {
		ResetMemo()
		SetParallelism(jobs)
		var buf bytes.Buffer
		if _, err := SortPageTable(&buf); err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("sort table differs:\n-j 1:\n%s\n-j 8:\n%s", serial, parallel)
	}
}

// diffLine returns the 0-based index of the first line where a and b
// differ.
func diffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return i
		}
	}
	if len(la) < len(lb) {
		return len(la)
	}
	return len(lb)
}

// lineAt returns line i of text, or "" past the end.
func lineAt(text []byte, i int) string {
	lines := bytes.Split(text, []byte("\n"))
	if i < 0 || i >= len(lines) {
		return ""
	}
	return string(lines[i])
}
