package main

import (
	"bytes"
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
