package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/workloads"
)

func testCtx() *runCtx {
	o := options{workload: "test", seconds: 1, smoke: true}
	return &runCtx{o: o, res: newResult(o), pool: expt.Pool(), v: newVerifier()}
}

// A wrong answer must register as a failed op and never as a fast one: a
// corrupted response body and a non-200 status both fail the op and leave
// no latency sample behind.
func TestBadResponsesAreFailedOps(t *testing.T) {
	const good = "program  fib\ncores    48\n"
	mode := "good"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode {
		case "corrupt":
			w.Write([]byte("program  fib\ncores    49\n")) // one flipped digit, same length, still 200
		case "status":
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(good)) // the right bytes under the wrong status
		default:
			w.Write([]byte(good))
		}
	}))
	defer ts.Close()
	srv := &server{base: ts.URL, client: ts.Client()}

	c := testCtx()
	var body []byte
	fetch := op{
		kind:  "cold",
		run:   func(*span) (err error) { body, err = srv.get("/artifacts/x/summary"); return err },
		check: func() bool { return c.v.same("summary", digest(body)) },
	}
	for _, step := range []struct {
		mode                      string
		attempted, failed, sample int
	}{
		{"good", 1, 0, 1},    // sets the reference
		{"corrupt", 2, 1, 1}, // fails, adds no sample
		{"status", 3, 2, 1},
		{"good", 4, 2, 2}, // and a good op after them still counts
	} {
		mode = step.mode
		if err := c.timeOp(fetch, true); err != nil {
			t.Fatalf("%s: %v", step.mode, err)
		}
		if c.res.Attempted != step.attempted || c.res.Failed != step.failed || len(c.res.Samples["cold_s"]) != step.sample {
			t.Errorf("after a %s response: attempted %d failed %d samples %d, want %d %d %d", step.mode,
				c.res.Attempted, c.res.Failed, len(c.res.Samples["cold_s"]), step.attempted, step.failed, step.sample)
		}
	}
	if len(c.v.problems) != 2 {
		t.Errorf("problems recorded: %q, want one per failed op", c.v.problems)
	}
	if n := len(c.res.Samples["alloc_mb_per_op"]); n != 2 {
		t.Errorf("%d allocation samples, want 2 (failed ops contribute none)", n)
	}
}

// A truncated artifact is a failed session, not a quick one.
func TestTruncatedArtifactIsFailedOp(t *testing.T) {
	inst, err := workloads.Get("kdtree", workloads.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	res, err := expt.Run(inst, expt.Config{Cores: simulatedCores, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	whole, cut := filepath.Join(dir, "whole.ggp"), filepath.Join(dir, "cut.ggp")
	if err := ggp.WriteFileV2(whole, res.Trace, res.Graph, expt.Sidecars(res, expt.Pool())); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cut, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	c := testCtx()
	path := whole
	var got [][]byte
	read := op{
		kind:  "warm",
		run:   func(sp *span) (err error) { got, err = fileSession(path, c.pool, sp); return err },
		check: func() bool { return c.checkRenderings("session", got) },
	}
	if err := c.timeOp(read, true); err != nil {
		t.Fatal(err)
	}
	path = cut
	if err := c.timeOp(read, true); err != nil {
		t.Fatal(err)
	}
	if c.res.Attempted != 2 || c.res.Failed != 1 || len(c.res.Samples["warm_s"]) != 1 {
		t.Errorf("attempted %d failed %d samples %d, want 2 1 1",
			c.res.Attempted, c.res.Failed, len(c.res.Samples["warm_s"]))
	}
}
