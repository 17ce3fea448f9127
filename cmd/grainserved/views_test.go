package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"testing"

	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/obs"
	"graingraph/internal/runpool"
)

// viewCases are the (view, parameters) pairs the HTTP half of CLI≡HTTP
// requests: the smoke script's endpoints plus every other row of the
// view table. grainview's test renders the same rows from its flags.
var viewCases = []struct{ view, query string }{
	{"summary", ""},
	{"highlight", ""},
	{"whatif", ""},
	{"whatif", "spec=" + url.QueryEscape("cutoff:4,infcores")},
	{"query", "q=" + url.QueryEscape("from grains | filter exec > 0 | groupby loc | agg count, sum(exec), mean(benefit) | sort sum_exec desc | topk 5")},
	{"query", "q=" + url.QueryEscape("from tasks | sort subwork desc | topk 3")},
	// Windows that differ in one parameter each: the render memo's key
	// must tell every one apart.
	{"window", "depth=2&top=8&format=dot"},
	{"window", "depth=1&top=8&format=dot"},
	{"window", "depth=2&top=4&format=dot"},
	{"window", "root=R.0&depth=2&top=8&format=dot"},
	{"window", "depth=2&top=8&format=json"},
	{"window", "depth=1&format=json"},
	{"window", "root=R&top=4&format=graphml"},
	{"stats", ""},
	{"trace", ""},
}

// TestViewsServeTheTable checks every route against its row of the view
// table: the body is the row's Render on the same artifact (v1 and v2),
// and the content type is the row's.
func TestViewsServeTheTable(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, c := range viewCases {
		covered[c.view] = true
	}
	for _, v := range expt.Views {
		if !covered[v.Name] {
			t.Errorf("view %q has no HTTP case", v.Name)
		}
	}

	pool := runpool.New(4)
	dec, err := ggp.Decode(f.raw, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := expt.AnalyzeDecodedOn(pool, dec, nil, expt.Config{}, nil)
	v2, err := ggp.EncodeV2(res.Trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := &expt.Subject{Res: res}

	for _, raw := range [][]byte{f.raw, v2} {
		s := newTestServer(t, 0)
		id := upload(t, s, raw)["id"].(string)
		for _, c := range viewCases {
			q, _ := url.ParseQuery(c.query)
			v := expt.LookupView(c.view)
			p, err := v.Parse(q)
			if err != nil {
				t.Fatalf("%s?%s: %v", c.view, c.query, err)
			}
			want, err := v.Render(sub, p, pool, nil)
			if err != nil {
				t.Fatalf("%s?%s: %v", c.view, c.query, err)
			}
			w := do(t, s, "GET", "/artifacts/"+id+"/"+c.view+"?"+c.query, "", nil)
			if w.Code != http.StatusOK {
				t.Fatalf("GET %s?%s: status %d: %s", c.view, c.query, w.Code, w.Body.String())
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("GET %s?%s differs from the row's render\ngot:  %.300q\nwant: %.300q", c.view, c.query, w.Body.Bytes(), want)
			}
			if ct := w.Header().Get("Content-Type"); ct != p.ContentType {
				t.Errorf("GET %s?%s: content type %q, want %q", c.view, c.query, ct, p.ContentType)
			}
		}
	}
}

// TestParamsCheckedBeforeAdmission sends malformed parameters for an
// artifact with no warm state: each is a structured 400 decided by the
// view's grammar alone, so nothing is admitted, decoded or analyzed.
func TestParamsCheckedBeforeAdmission(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(serverConfig{Dir: t.TempDir(), Workers: 4, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	upload(t, s, f.raw)
	if w := do(t, s, "POST", "/debug/evict", "", nil); w.Code != http.StatusOK {
		t.Fatalf("evict: status %d", w.Code)
	}
	for _, path := range []string{
		"window?format=bogus",
		"window?depth=abc",
		"window?top=-1",
		"whatif?spec=" + url.QueryEscape("cutoff:x"),
		"whatif?spec=bogus",
	} {
		w := do(t, s, "GET", "/artifacts/"+f.id+"/"+path, "", nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400: %s", path, w.Code, w.Body.String())
			continue
		}
		var body map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: non-JSON error body: %v", path, err)
		}
		if body["error"] != "bad-params" || body["view"] == nil || body["detail"] == nil {
			t.Errorf("GET %s: unstructured 400 body %v", path, body)
		}
	}
	if n := s.analyses.Counters().Misses; n != 0 {
		t.Errorf("malformed requests ran %d analyses, want 0", n)
	}
	if n := s.decodes.Counters().Misses; n != 0 {
		t.Errorf("malformed requests ran %d decodes, want 0", n)
	}
	if waits, _ := s.gate.queueStats(); waits != 0 {
		t.Errorf("malformed requests queued %d times for admission, want 0", waits)
	}
}

// TestPanickingRenderIs500 serves a row whose render panics on a pool
// worker: that request fails with a JSON 500, and the same server keeps
// serving.
func TestPanickingRenderIs500(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, 0)
	s.route(expt.View{
		Name:  "boom",
		Parse: func(url.Values) (expt.Params, error) { return expt.Params{}, nil },
		Render: func(_ *expt.Subject, _ expt.Params, pool *runpool.Runner, _ *obs.Span) ([]byte, error) {
			runpool.ParallelFor(pool, 64, 1, func(c, _, _ int) {
				if c == 7 {
					panic("boom")
				}
			})
			return nil, nil
		},
	})
	upload(t, s, f.raw)

	w := do(t, s, "GET", "/artifacts/"+f.id+"/boom", "", nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking render: status %d, want 500: %s", w.Code, w.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == nil {
		t.Errorf("panicking render: body %q is not a JSON error", w.Body.String())
	}
	w = do(t, s, "GET", "/artifacts/"+f.id+"/summary", "", nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), f.summary) {
		t.Errorf("request after the panic: status %d, body differs: %v", w.Code, !bytes.Equal(w.Body.Bytes(), f.summary))
	}
	// The panicked render was not memoized: it fails again, not with a
	// cached value.
	if w := do(t, s, "GET", "/artifacts/"+f.id+"/boom", "", nil); w.Code != http.StatusInternalServerError {
		t.Errorf("repeated panicking render: status %d, want 500", w.Code)
	}
}
