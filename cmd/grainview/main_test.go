package main

import (
	"bytes"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/runpool"
	"graingraph/internal/whatif"
	"graingraph/internal/workloads"
)

// artifacts records the fib fixture once per test binary, as v1 and as
// columnar v2, into a directory that outlives any one test.
var artifacts = sync.OnceValues(func() ([]string, error) {
	dir, err := os.MkdirTemp("", "grainview-test-")
	if err != nil {
		return nil, err
	}
	inst, err := workloads.Get("fib", workloads.VariantDefault)
	if err != nil {
		return nil, err
	}
	res, err := expt.Run(inst, expt.Config{Cores: 4, Seed: 1})
	if err != nil {
		return nil, err
	}
	v1, v2 := filepath.Join(dir, "fib.v1.ggp"), filepath.Join(dir, "fib.v2.ggp")
	if err := ggp.WriteFile(v1, res.Trace); err != nil {
		return nil, err
	}
	return []string{v1, v2}, ggp.WriteFileV2(v2, res.Trace, nil, nil)
})

func TestMain(m *testing.M) {
	code := m.Run()
	if paths, err := artifacts(); err == nil {
		os.RemoveAll(filepath.Dir(paths[0]))
	}
	os.Exit(code)
}

// subjectOf analyzes an artifact the way grainserved does, on its own pool.
func subjectOf(t *testing.T, path string) *expt.Subject {
	t.Helper()
	pool := runpool.New(4)
	dec, err := ggp.DecodeFile(path, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &expt.Subject{Res: expt.AnalyzeDecodedOn(pool, dec, nil, expt.Config{}, nil)}
}

// renderRow renders one row of the view table for sub.
func renderRow(t *testing.T, sub *expt.Subject, view, query string) []byte {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	v := expt.LookupView(view)
	p, err := v.Parse(q)
	if err != nil {
		t.Fatalf("%s?%s: %v", view, query, err)
	}
	b, err := v.Render(sub, p, runpool.New(4), nil)
	if err != nil {
		t.Fatalf("%s?%s: %v", view, query, err)
	}
	return b
}

// TestRunMatchesViewTable is the CLI half of CLI≡HTTP: for every row of
// the view table, grainview's flags render exactly the row's bytes on the
// same artifact, v1 and v2. grainserved's test checks the HTTP half against
// the same rows.
func TestRunMatchesViewTable(t *testing.T) {
	paths, err := artifacts()
	if err != nil {
		t.Fatal(err)
	}
	const q = "from grains | filter exec > 0 | groupby loc | agg count, sum(exec), mean(benefit) | sort sum_exec desc | topk 5"
	dir := t.TempDir()
	ignored := filepath.Join(dir, "ignored.dot")
	traceFile := filepath.Join(dir, "trace.json")
	cases := []struct {
		view, query string   // the row and its parameters
		args        []string // the grainview flags that render it
		then        string   // a view grainview prints after it, if any
		file        string   // where the view lands, if not stdout
	}{
		{"summary", "", []string{"-summary"}, "", ""},
		{"highlight", "", []string{"-highlight"}, "", ""},
		// With -o, the what-if table goes to stdout and the export to the file.
		{"whatif", "", []string{"-whatif", "rank", "-o", ignored}, "", ""},
		{"whatif", "spec=" + url.QueryEscape("cutoff:4,infcores"), []string{"-whatif", "cutoff:4,infcores", "-o", ignored}, "", ""},
		{"query", "q=" + url.QueryEscape(q), []string{"-query", q}, "", ""},
		{"query", "q=" + url.QueryEscape("from tasks | sort subwork desc | topk 3"), []string{"-query", "from tasks | sort subwork desc | topk 3"}, "", ""},
		{"window", "depth=2&top=8&format=dot", []string{"-window", "depth=2,top=8", "-format", "dot"}, "", ""},
		{"window", "depth=1&format=json", []string{"-window", "depth=1", "-format", "json"}, "", ""},
		{"window", "root=R&top=4&format=graphml", []string{"-window", "root=R,top=4", "-format", "graphml"}, "", ""},
		{"stats", "", []string{"-stats", "-summary"}, "summary", ""},
		{"trace", "", []string{"-trace", traceFile, "-summary"}, "", traceFile},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.view] = true
	}
	for _, v := range expt.Views {
		if !covered[v.Name] {
			t.Errorf("view %q has no grainview case", v.Name)
		}
	}

	for _, path := range paths {
		sub := subjectOf(t, path)
		for _, c := range cases {
			var stdout, stderr bytes.Buffer
			if code := run(append(c.args, path), &stdout, &stderr); code != 0 {
				t.Fatalf("%s: grainview %v: exit %d: %s", filepath.Base(path), c.args, code, stderr.String())
			}
			got := stdout.Bytes()
			if c.file != "" {
				if got, err = os.ReadFile(c.file); err != nil {
					t.Fatal(err)
				}
			}
			want := renderRow(t, sub, c.view, c.query)
			if c.then != "" {
				want = append(want, renderRow(t, sub, c.then, "")...)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: grainview %v differs from the %s row (%s)\ngot:  %.300q\nwant: %.300q",
					filepath.Base(path), c.args, c.view, c.query, got, want)
			}
		}
	}
}

// TestRunUsageErrors pins the exit codes: a malformed -query, -window or
// -whatif expression is a usage error (2, with the flag's usage line), a
// failing step is 1.
func TestRunUsageErrors(t *testing.T) {
	paths, err := artifacts()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args  []string
		code  int
		usage string
	}{
		{[]string{"-query", "bogus nonsense"}, 2, "-query"},
		{[]string{"-query", "filter nosuchcol > 1"}, 2, "-query"},
		{[]string{"-window", "depth=abc"}, 2, "-window"},
		{[]string{"-window", "depth=-1"}, 2, "-window"},
		{[]string{"-window", "root=NOPE"}, 2, "-window"},
		{[]string{"-whatif", "bogus"}, 2, "-whatif"},
		{[]string{"-nosuchflag"}, 2, ""},
		{[]string{"-view", "bogus"}, 1, ""},
		{[]string{"-format", "bogus"}, 1, ""},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(append(c.args, paths[0]), &stdout, &stderr)
		if code != c.code {
			t.Errorf("grainview %v: exit %d, want %d: %s", c.args, code, c.code, stderr.String())
		}
		if c.usage != "" && !strings.Contains(stderr.String(), "usage: grainview "+c.usage) {
			t.Errorf("grainview %v: stderr has no %s usage line: %s", c.args, c.usage, stderr.String())
		}
	}
}

// TestWhatifUsageParses: every spec form the -whatif usage line names, with
// its placeholders filled in, is accepted by the grammar, alone and as one
// list, and the line names every form the grammar accepts.
func TestWhatifUsageParses(t *testing.T) {
	_, list, ok := strings.Cut(whatifUsage, "one of: ")
	if !ok {
		t.Fatalf("usage line %q lists no spec forms", whatifUsage)
	}
	grain := "R.0"
	fill := strings.NewReplacer("<depth>", "3", "<grain>", grain, "<factor>", "0.5")
	var specs []string
	kinds := map[string]bool{}
	for _, form := range strings.Fields(list) {
		kinds[strings.SplitN(form, ":", 2)[0]] = true
		alts := []string{form}
		if strings.Contains(form, "<grain|all>") {
			alts = []string{strings.ReplaceAll(form, "<grain|all>", grain), strings.ReplaceAll(form, "<grain|all>", "all")}
		}
		for _, a := range alts {
			spec := fill.Replace(a)
			if strings.ContainsAny(spec, "<>[]|") {
				t.Fatalf("form %q: placeholder left in %q", form, spec)
			}
			if _, err := whatif.ParseSpecs(spec); err != nil {
				t.Errorf("usage form %q (as %q) is rejected: %v", form, spec, err)
			}
			specs = append(specs, spec)
		}
	}
	if _, err := whatif.ParseSpecs(strings.Join(specs, ",")); err != nil {
		t.Errorf("the forms as one list %q are rejected: %v", strings.Join(specs, ","), err)
	}
	for _, k := range []string{"cutoff", "scale", "scale-subtree", "collapse", "infcores", "deinflate"} {
		if !kinds[k] {
			t.Errorf("usage line names no %s form", k)
		}
	}
	if _, err := expt.LookupView("whatif").Parse(url.Values{"spec": {"rank"}}); err != nil {
		t.Errorf("-whatif rank is rejected: %v", err)
	}
}
