package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sync"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/runpool"
	"graingraph/internal/workloads"
)

// fixture is a real recorded artifact (the fib workload simulated once per
// test process) plus the reference renderings computed directly through the
// expt writers — the exact bytes every endpoint must serve.
type fixtureData struct {
	raw       []byte // the .ggp artifact body
	id        string // its content address
	summary   []byte
	highlight []byte
	whatif    []byte
	windowDot []byte // window with depth=2, top=4, dot format
}

var fixture = sync.OnceValues(func() (*fixtureData, error) {
	inst, err := workloads.Get("fib", workloads.VariantDefault)
	if err != nil {
		return nil, err
	}
	run, err := expt.Run(inst, expt.Config{Cores: 4, Seed: 1})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ggp.WriteTrace(&buf, run.Trace); err != nil {
		return nil, err
	}
	f := &fixtureData{raw: buf.Bytes()}
	f.id = runpool.KeyOfBytes(f.raw).Hex()

	// Reference path: decode the artifact and analyze it exactly like
	// `grainview -artifact` does, on a private pool.
	pool := runpool.New(4)
	dec, err := ggp.Decode(f.raw, nil, nil)
	if err != nil {
		return nil, err
	}
	res := expt.AnalyzeDecodedOn(pool, dec, nil, expt.Config{}, nil)

	var w bytes.Buffer
	if err := expt.WriteSummary(&w, res); err != nil {
		return nil, err
	}
	f.summary = append([]byte(nil), w.Bytes()...)

	w.Reset()
	if err := expt.WriteHighlight(&w, res); err != nil {
		return nil, err
	}
	f.highlight = append([]byte(nil), w.Bytes()...)

	w.Reset()
	ps, err := expt.WhatIfRank(res, pool, nil)
	if err != nil {
		return nil, err
	}
	if err := expt.WriteWhatIfTable(&w, res, ps); err != nil {
		return nil, err
	}
	f.whatif = append([]byte(nil), w.Bytes()...)

	w.Reset()
	ix := lod.Build(res.Graph, res.Assessment)
	wg, _, err := ix.Window(lod.WindowOptions{Depth: 2, Top: 4})
	if err != nil {
		return nil, err
	}
	core.Layout(wg)
	if err := export.DOTWithWhatIfPool(&w, wg, res.Assessment, export.ViewStructure, nil, pool); err != nil {
		return nil, err
	}
	f.windowDot = append([]byte(nil), w.Bytes()...)
	return f, nil
})

// newTestServer builds a server on a per-test store directory.
func newTestServer(t *testing.T, cap int) *server {
	t.Helper()
	s, err := newServer(serverConfig{Dir: t.TempDir(), Workers: 4, AnalysisCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do issues one request against the in-process handler.
func do(t *testing.T, s *server, method, path, tenant string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	if tenant != "" {
		r.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func upload(t *testing.T, s *server, body []byte) map[string]any {
	t.Helper()
	w := do(t, s, "POST", "/artifacts", "", body)
	if w.Code != http.StatusCreated && w.Code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", w.Code, w.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	return resp
}

func TestUploadAndServeByteIdentical(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, 0)

	resp := upload(t, s, f.raw)
	if resp["id"] != f.id {
		t.Fatalf("upload id = %v, want content address %s", resp["id"], f.id)
	}
	if resp["existed"] != false {
		t.Errorf("first upload reported existed=%v", resp["existed"])
	}

	endpoints := []struct {
		path string
		want []byte
	}{
		{"/artifacts/" + f.id + "/summary", f.summary},
		{"/artifacts/" + f.id + "/highlight", f.highlight},
		{"/artifacts/" + f.id + "/whatif", f.whatif},
		{"/artifacts/" + f.id + "/window?depth=2&top=4&format=dot", f.windowDot},
	}
	for _, ep := range endpoints {
		w := do(t, s, "GET", ep.path, "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", ep.path, w.Code, w.Body.String())
		}
		if !bytes.Equal(w.Body.Bytes(), ep.want) {
			t.Errorf("GET %s: body differs from the expt writer output\ngot:  %q\nwant: %q",
				ep.path, truncate(w.Body.Bytes()), truncate(ep.want))
		}
	}
}

func truncate(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "..."
	}
	return string(b)
}

// TestRepeatedUploadZeroReanalysis is the tentpole's memoization guarantee:
// uploading the same artifact again and re-querying every endpoint must not
// decode, analyze, or render anything a second time — the memo counters
// prove it.
func TestRepeatedUploadZeroReanalysis(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, 0)

	upload(t, s, f.raw)
	paths := []string{
		"/artifacts/" + f.id + "/summary",
		"/artifacts/" + f.id + "/highlight",
		"/artifacts/" + f.id + "/whatif",
		"/artifacts/" + f.id + "/window?depth=2&top=4",
	}
	for _, p := range paths {
		if w := do(t, s, "GET", p, "", nil); w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", p, w.Code, w.Body.String())
		}
	}
	decodes := s.decodes.Counters().Misses
	analyses := s.analyses.Counters().Misses
	renders := s.renders.Counters().Misses
	if analyses != 1 {
		t.Fatalf("first pass ran %d analyses, want exactly 1", analyses)
	}

	// Second pass: identical upload plus every query again.
	resp := upload(t, s, f.raw)
	if resp["existed"] != true || resp["memo_hit"] != true {
		t.Errorf("re-upload: existed=%v memo_hit=%v, want true/true", resp["existed"], resp["memo_hit"])
	}
	for _, p := range paths {
		if w := do(t, s, "GET", p, "", nil); w.Code != http.StatusOK {
			t.Fatalf("GET %s (repeat): status %d", p, w.Code)
		}
	}
	if got := s.decodes.Counters().Misses; got != decodes {
		t.Errorf("repeat pass re-decoded: %d decode runs, want %d", got, decodes)
	}
	if got := s.analyses.Counters().Misses; got != analyses {
		t.Errorf("repeat pass re-analyzed: %d analysis runs, want %d", got, analyses)
	}
	if got := s.renders.Counters().Misses; got != renders {
		t.Errorf("repeat pass re-rendered: %d render runs, want %d", got, renders)
	}
}

// TestDiskMemoSurvivesCacheEviction drops the in-memory caches (simulating
// eviction or a restart) and checks the disk memo still serves the exact
// bytes without a fresh analysis... until the memo is also gone.
func TestDiskMemoSurvivesCacheReset(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, 0)
	upload(t, s, f.raw)
	p := "/artifacts/" + f.id + "/summary"
	if w := do(t, s, "GET", p, "", nil); w.Code != http.StatusOK {
		t.Fatal(w.Body.String())
	}

	s.decodes.Reset()
	s.analyses.Reset()
	s.renders.Reset()

	w := do(t, s, "GET", p, "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("after reset: status %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), f.summary) {
		t.Error("disk-memo response differs from the expt writer output")
	}
	if got := s.analyses.Counters().Misses; got != 0 {
		t.Errorf("disk memo hit still ran %d analyses, want 0", got)
	}
}

func TestUnknownAndMalformedArtifacts(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, 0)

	if w := do(t, s, "GET", "/artifacts/zzzz/summary", "", nil); w.Code != http.StatusBadRequest {
		t.Errorf("malformed id: status %d, want 400", w.Code)
	}
	// Valid address, never uploaded: 404 — and the failure must not stick.
	p := "/artifacts/" + f.id + "/summary"
	if w := do(t, s, "GET", p, "", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown artifact: status %d, want 404", w.Code)
	}
	upload(t, s, f.raw)
	if w := do(t, s, "GET", p, "", nil); w.Code != http.StatusOK {
		t.Errorf("after upload, cached 404 was served: status %d, want 200", w.Code)
	}

	// Corrupt body: the CRC/validate gate rejects it at ingest.
	bad := append([]byte(nil), f.raw...)
	bad[len(bad)/2] ^= 0xff
	if w := do(t, s, "POST", "/artifacts", "", bad); w.Code != http.StatusBadRequest {
		t.Errorf("corrupt upload: status %d, want 400: %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "POST", "/artifacts", "", nil); w.Code != http.StatusBadRequest {
		t.Errorf("empty upload: status %d, want 400", w.Code)
	}
	if w := do(t, s, "GET", "/artifacts/"+f.id+"/window?format=tiff", "", nil); w.Code != http.StatusBadRequest {
		t.Errorf("unknown window format: status %d, want 400", w.Code)
	}
}

// TestConcurrentTenantsShareOneAnalysis hammers every endpoint from many
// tenants at once (run under -race in CI): all responses must be the exact
// reference bytes, and the whole storm must cost exactly one analysis.
func TestConcurrentTenantsShareOneAnalysis(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, 4)
	upload(t, s, f.raw)

	want := map[string][]byte{
		"/artifacts/" + f.id + "/summary":                         f.summary,
		"/artifacts/" + f.id + "/highlight":                       f.highlight,
		"/artifacts/" + f.id + "/whatif":                          f.whatif,
		"/artifacts/" + f.id + "/window?depth=2&top=4&format=dot": f.windowDot,
	}
	const tenants = 4
	const perTenant = 8
	errc := make(chan error, tenants*perTenant*len(want))
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p, expect := range want {
					w := do(t, s, "GET", p, tenant, nil)
					if w.Code != http.StatusOK {
						errc <- fmt.Errorf("%s GET %s: status %d", tenant, p, w.Code)
						continue
					}
					if !bytes.Equal(w.Body.Bytes(), expect) {
						errc <- fmt.Errorf("%s GET %s: bytes differ", tenant, p)
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := s.analyses.Counters().Misses; got != 1 {
		t.Errorf("concurrent storm ran %d analyses, want exactly 1", got)
	}
}

func TestStatszAndHealthz(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, 2)
	upload(t, s, f.raw)
	do(t, s, "GET", "/artifacts/"+f.id+"/summary", "acme", nil)

	w := do(t, s, "GET", "/healthz", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	w = do(t, s, "GET", "/statsz", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("statsz: %d", w.Code)
	}
	var stats map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatalf("statsz is not JSON: %v", err)
	}
	for _, key := range []string{"requests", "caches", "phases", "admission", "cache_entries"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("statsz missing %q section", key)
		}
	}
}

// TestFairGateRoundRobin drives the admission queue directly: with one slot
// and two tenants queued at different depths, grants must alternate between
// tenants rather than drain the deep queue first.
func TestFairGateRoundRobin(t *testing.T) {
	g := newFairGate(1)
	release := g.acquire("a") // take the only slot

	order := make(chan string, 4)
	var wg sync.WaitGroup
	queued := 0
	enqueue := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel := g.acquire(tenant)
			order <- tenant
			rel()
		}()
		queued++
		// Wait until this waiter is actually queued, so the queue order is
		// deterministic.
		for {
			g.mu.Lock()
			n := 0
			for _, q := range g.queues {
				n += len(q)
			}
			g.mu.Unlock()
			if n >= queued {
				break
			}
			runtime.Gosched()
		}
	}
	// noisy queues three requests before quiet queues one.
	enqueue("noisy")
	enqueue("noisy")
	enqueue("noisy")
	enqueue("quiet")

	release()
	wg.Wait()
	close(order)
	var got []string
	for tenant := range order {
		got = append(got, tenant)
	}
	// Round-robin: noisy (first in ring), then quiet, then noisy's rest.
	want := []string{"noisy", "quiet", "noisy", "noisy"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
	if waits, _ := g.queueStats(); waits != 4 {
		t.Errorf("queueStats waits = %d, want 4", waits)
	}
}

// TestQueryEndpoint checks GET /artifacts/{id}/query against the expt
// writer grainview's -query flag uses (byte-identity, both sources), the
// render memo, and the structured 400 for malformed or unbindable queries.
func TestQueryEndpoint(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, 0)
	upload(t, s, f.raw)

	pool := runpool.New(4)
	dec, err := ggp.Decode(f.raw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := expt.AnalyzeDecodedOn(pool, dec, nil, expt.Config{}, nil)

	queries := []string{
		"from grains | filter exec > 0 | groupby loc | agg count, sum(exec), mean(benefit) | sort sum_exec desc | topk 5",
		"filter benefit < 1 | sort exec desc, id asc | topk 10 | select id,loc,exec,benefit",
		"from tasks | filter depth >= 1 | sort subwork desc | topk 3 | select id,depth,subwork,subtasks",
	}
	for _, q := range queries {
		var ref bytes.Buffer
		if err := expt.WriteQuery(&ref, res, q, pool); err != nil {
			t.Fatalf("reference WriteQuery(%q): %v", q, err)
		}
		path := "/artifacts/" + f.id + "/query?q=" + url.QueryEscape(q)
		w := do(t, s, "GET", path, "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", q, w.Code, w.Body.String())
		}
		if !bytes.Equal(w.Body.Bytes(), ref.Bytes()) {
			t.Errorf("query %q: response differs from grainview's writer\nserver:\n%s\nreference:\n%s",
				q, w.Body.String(), ref.String())
		}
		// Second hit serves from the render memo, byte-identical.
		w2 := do(t, s, "GET", path, "", nil)
		if !bytes.Equal(w2.Body.Bytes(), ref.Bytes()) {
			t.Errorf("query %q: memoized response differs", q)
		}
	}

	// Malformed and unbindable queries are the client's fault: structured
	// 400, never a 500.
	for _, q := range []string{"bogus nonsense", "filter nosuchcol > 1", ""} {
		w := do(t, s, "GET", "/artifacts/"+f.id+"/query?q="+url.QueryEscape(q), "", nil)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400: %s", q, w.Code, w.Body.String())
		}
		var body map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("query %q: non-JSON error body: %v", q, err)
		}
		if body["error"] != "bad-query" {
			t.Errorf("query %q: error = %v, want bad-query", q, body["error"])
		}
		if body["detail"] == nil || body["hint"] == nil {
			t.Errorf("query %q: missing detail/hint in %v", q, body)
		}
	}
}

// TestUpgradeInPlaceAndEvict pins the columnar-upgrade lifecycle: after
// the first analysis of a v1 upload, the stored artifact is rewritten as
// columnar v2 with derived sidecars; with -debug, POST /debug/evict drops
// every warm tier, and the next request — served entirely from the
// upgraded artifact — is byte-identical to the pre-upgrade response.
func TestUpgradeInPlaceAndEvict(t *testing.T) {
	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(serverConfig{Dir: t.TempDir(), Workers: 4, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	upload(t, s, f.raw)

	w := do(t, s, "GET", "/artifacts/"+f.id+"/summary", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("summary: status %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), f.summary) {
		t.Fatal("summary differs from reference before upgrade")
	}

	// The stored artifact must now be columnar v2 with fresh sidecars.
	stored, err := os.ReadFile(s.artifactPath(f.id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored[:len(ggp.Magic)], []byte(ggp.Magic)) || stored[len(ggp.Magic)] != 2 {
		t.Fatalf("stored artifact not upgraded to v2 (version byte %d)", stored[len(ggp.Magic)])
	}
	dec, err := ggp.Decode(stored, nil, nil)
	if err != nil {
		t.Fatalf("upgraded artifact does not decode: %v", err)
	}
	if !dec.HasSidecars() {
		t.Fatal("upgraded artifact has no fresh sidecars")
	}
	// The upgrade streamed through a temp file in the store directory, which
	// must be gone: the store holds the artifact and the memo directory.
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != f.id+".ggp" && e.Name() != "memo" {
			t.Errorf("upgrade left %s in the store directory", e.Name())
		}
	}
	// /statsz splits the upgrade into its derivation and its write.
	phases := map[string]any{}
	for _, p := range s.phases.phaseRows() {
		phases[p["phase"].(string)] = p["count"]
	}
	for _, name := range []string{"upgrade:ggp2", "upgrade:sidecars", "upgrade:write"} {
		if phases[name] != int64(1) {
			t.Errorf("phase %s recorded %v times, want once", name, phases[name])
		}
	}

	ev := do(t, s, "POST", "/debug/evict", "", nil)
	if ev.Code != http.StatusOK {
		t.Fatalf("evict: status %d: %s", ev.Code, ev.Body.String())
	}
	if n := s.analyses.Len() + s.decodes.Len() + s.renders.Len(); n != 0 {
		t.Fatalf("evict left %d warm cache entries", n)
	}

	// Cold request over the upgraded artifact: decode hands over the
	// sidecars, and the rendered bytes stay identical.
	misses := s.decodes.Counters().Misses
	w2 := do(t, s, "GET", "/artifacts/"+f.id+"/summary", "", nil)
	if w2.Code != http.StatusOK {
		t.Fatalf("post-evict summary: status %d: %s", w2.Code, w2.Body.String())
	}
	if !bytes.Equal(w2.Body.Bytes(), f.summary) {
		t.Fatal("post-evict summary differs from pre-upgrade response")
	}
	if got := s.decodes.Counters().Misses; got != misses+1 {
		t.Fatalf("post-evict request decoded %d times, want exactly 1 fresh decode", got-misses)
	}

	// A second query-source render must also match: the grains table now
	// comes from the query sidecar.
	q := "/artifacts/" + f.id + "/query?q=" + url.QueryEscape("sort exec desc, id asc | topk 5 by exec")
	first := do(t, s, "GET", q, "", nil)
	do(t, s, "POST", "/debug/evict", "", nil)
	second := do(t, s, "GET", q, "", nil)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("query status %d / %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("query render differs after evict + sidecar-assisted decode")
	}

	// Without -debug the endpoint must not exist.
	plain := newTestServer(t, 0)
	if w := do(t, plain, "POST", "/debug/evict", "", nil); w.Code == http.StatusOK {
		t.Fatalf("evict reachable without Debug (status %d)", w.Code)
	}
}

// TestCyclicLegacyUpload: an older v2 artifact whose stored graph closes a
// cycle under valid checksums (internal/ggp/testdata/seed.v2-cyclic.ggp)
// is accepted at upload, its summary is the bytes grainview renders from
// the same file (the view table's row), and the server keeps serving: an
// artifact uploaded after it serves its reference bytes.
func TestCyclicLegacyUpload(t *testing.T) {
	raw, err := os.ReadFile("../../internal/ggp/testdata/seed.v2-cyclic.ggp")
	if err != nil {
		t.Fatal(err)
	}
	pool := runpool.New(4)
	dec, err := ggp.Decode(raw, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := &expt.Subject{Res: expt.AnalyzeDecodedOn(pool, dec, nil, expt.Config{}, nil)}
	v := expt.LookupView("summary")
	p, err := v.Parse(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.Render(sub, p, pool, nil)
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, 0)
	id := upload(t, s, raw)["id"].(string)
	w := do(t, s, "GET", "/artifacts/"+id+"/summary", "", nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("summary: status %d, body differs from grainview's: %v\n%s", w.Code, !bytes.Equal(w.Body.Bytes(), want), w.Body.String())
	}

	f, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	upload(t, s, f.raw)
	if w := do(t, s, "GET", "/artifacts/"+f.id+"/summary", "", nil); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), f.summary) {
		t.Errorf("after the cyclic upload, the fixture's summary: status %d, reference bytes %v", w.Code, bytes.Equal(w.Body.Bytes(), f.summary))
	}
}
