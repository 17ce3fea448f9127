package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"fig none is unknown", []string{"-fig", "none"}, 2},
		{"unknown figure", []string{"-fig", "bogus"}, 2},
		// An undefined flag is refused, not ignored.
		{"removed benchjson flag", []string{"-benchjson", "x.json"}, 2},
		{"removed ggp-v2 flag", []string{"-ggp-v2"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%q) = %d, want %d; stderr:\n%s", tc.args, got, tc.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%q) wrote to stdout:\n%s", tc.args, stdout.String())
			}
		})
	}
}

func TestRunFigure2Phases(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-fig", "2", "-phases"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Figure 2: 376.kdtree", "memo simulate:", "input facts: 0 recorded / 0 replayed"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

// TestRunSortStatsTrace pins the run log's two readers on the Sort table:
// one runtime-metrics block listing the four runs of its two requests in
// order (each request's 1-core baseline, then its 48-core run), and a
// trace file holding the same four runs.
func TestRunSortStatsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sort.json")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-fig", "sort", "-stats", "-trace", path}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", got, stderr.String())
	}
	out := stdout.String()
	if n := strings.Count(out, "runtime metrics:\n"); n != 1 {
		t.Fatalf("stdout has %d runtime-metrics blocks, want 1:\n%s", n, out)
	}
	block := out[strings.Index(out, "runtime metrics:\n")+len("runtime metrics:\n"):]
	block = block[:strings.Index(block, "\n\n")]
	var labels []string
	for _, line := range strings.Split(block, "\n") {
		label, _, ok := strings.Cut(strings.TrimPrefix(line, "  "), ": ")
		if !ok {
			t.Fatalf("malformed footer line %q", line)
		}
		labels = append(labels, label)
	}
	if len(labels) != 4 {
		t.Fatalf("footer lists %d runs, want 4:\n%s", len(labels), block)
	}
	for i, l := range labels {
		want := " p48 "
		if i%2 == 0 {
			want = " p1 "
		}
		if !strings.Contains(l, want) || strings.HasSuffix(l, " baseline") != (i%2 == 0) {
			t.Errorf("footer run %d is %q, want a%s run (baselines first)", i, l, want)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	var traced []string
	for _, ev := range trace.TraceEvents {
		if ev.Name == "process_name" {
			traced = append(traced, ev.Args.Name)
		}
	}
	if !slices.Equal(traced, labels) {
		t.Errorf("trace runs %q, footer runs %q", traced, labels)
	}
}
