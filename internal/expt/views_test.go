package expt

import (
	"bytes"
	"errors"
	"net/url"
	"sync"
	"testing"

	"graingraph/internal/query"
	"graingraph/internal/runpool"
	"graingraph/internal/workloads"
)

// viewFixture is a small fib run analyzed twice, on a 1-worker and on a
// 4-worker pool, so a render on each can be compared byte for byte.
var viewFixture = sync.OnceValues(func() ([2]*Subject, error) {
	var subs [2]*Subject
	inst, err := workloads.Get("fib", workloads.VariantDefault)
	if err != nil {
		return subs, err
	}
	res, err := Run(inst, Config{Cores: 4, Seed: 1})
	if err != nil {
		return subs, err
	}
	for i, pool := range viewPools {
		subs[i] = &Subject{Res: AnalyzeTraceOn(pool, res.Trace, nil, Config{}, nil)}
	}
	return subs, nil
})

var viewPools = [2]*runpool.Runner{runpool.New(1), runpool.New(4)}

// FuzzViewParams is the one entry point for every parameter grammar
// reachable over HTTP — the query language, lod's window keys and what-if
// specs — with inputs shaped like a request: a view name and a raw query
// string. Parsing never panics and rejects only with a typed error; any
// parameters it accepts render on the fixture without panicking, and the
// bytes on a 1-worker pool equal those on a 4-worker pool.
func FuzzViewParams(f *testing.F) {
	for _, seed := range [][2]string{
		{"summary", ""},
		{"highlight", ""},
		{"stats", ""},
		{"trace", ""},
		{"query", "q=" + url.QueryEscape("from grains | filter exec > 0 | groupby loc | agg count, sum(exec), mean(benefit) | sort sum_exec desc | topk 5")},
		{"query", "q=" + url.QueryEscape("from tasks | filter depth >= 1 | sort subwork desc | topk 3 | select id,depth,subwork,subtasks")},
		{"window", "depth=2&top=8&format=dot"},
		{"window", "root=R.0&depth=1&top=2&format=json"},
		{"window", "format=graphml"},
		{"whatif", ""},
		{"whatif", "spec=" + url.QueryEscape("cutoff:4,infcores")},
		{"whatif", "spec=" + url.QueryEscape("scale:R.0:0.5,collapse:R.0,deinflate:R.0")},
		// Malformed: each is a typed rejection, by the grammar or, for a root
		// that names no task, by the render.
		{"window", "format=bogus"},
		{"window", "depth=abc"},
		{"window", "depth=-1"},
		{"window", "root=NOPE"},
		{"whatif", "spec=bogus"},
		{"whatif", "spec=cutoff:x"},
		{"query", "q=bogus+nonsense"},
		{"query", "q=" + url.QueryEscape("filter nosuchcol > 1")},
		{"query", "q="},
		{"query", "q=%zz"},
	} {
		f.Add(seed[0], seed[1])
	}
	subs, err := viewFixture()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, view, raw string) {
		v := LookupView(view)
		if v == nil {
			return
		}
		q, _ := url.ParseQuery(raw) // what a server handler sees
		p, err := v.Parse(q)
		if err != nil {
			var pe *ParamError
			var qe *query.Error
			if !errors.As(err, &pe) && !errors.As(err, &qe) {
				t.Fatalf("%s?%s: untyped parse error %T: %v", view, raw, err, err)
			}
			return
		}
		var out [2][]byte
		var errs [2]error
		for i, s := range subs {
			out[i], errs[i] = v.Render(s, p, viewPools[i], nil)
		}
		if (errs[0] == nil) != (errs[1] == nil) || (errs[0] != nil && errs[0].Error() != errs[1].Error()) {
			t.Fatalf("%s?%s: -j 1 error %v, -j 4 error %v", view, raw, errs[0], errs[1])
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Fatalf("%s?%s: -j 1 and -j 4 renders differ", view, raw)
		}
	})
}
