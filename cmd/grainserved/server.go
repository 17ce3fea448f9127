package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
	"graingraph/internal/whatif"
)

// maxUploadBytes bounds one artifact upload; the ggp reader additionally
// caps every section at 64 MiB.
const maxUploadBytes = 1 << 30

// serverConfig shapes a server instance.
type serverConfig struct {
	// Dir is the content-addressed artifact store: uploads land as
	// <hex(KeyOfBytes(body))>.ggp, rendered responses are memoized under
	// Dir/memo.
	Dir string
	// Workers bounds the analysis pool shared by all requests.
	Workers int
	// AnalysisCap bounds the in-memory analyzed-artifact cache (entries);
	// <= 0 keeps it unbounded. Render and decode caches scale from it.
	AnalysisCap int
	// Admit bounds concurrently admitted analyses (the fair queue's slot
	// count); <= 0 selects Workers.
	Admit   int
	Verbose bool
	// Debug exposes the test-only /debug/evict endpoint (grainload -cold
	// uses it to measure cold-path latency). Off by default: eviction is
	// not something production clients should reach.
	Debug bool
}

// analysis is one artifact's fully derived state: the analyzed result
// plus lazily built, shared views over it (the lod index for windowed
// queries, the ranked what-if projections). All fields are immutable after
// their sync.Once completes, so concurrent requests share them freely.
type analysis struct {
	res *expt.Result

	// hadSidecars records whether the decoded artifact already carried
	// fresh derived sidecars; when it did not, upgradeOnce rewrites the
	// stored artifact as columnar v2 with sidecars after first analysis.
	hadSidecars bool
	upgradeOnce sync.Once

	rankOnce sync.Once
	rank     []whatif.Projection
	rankErr  error
}

// lod returns the shared level-of-detail index (adopted from the
// artifact's sidecar when present, built on first use otherwise).
func (a *analysis) lod() *lod.Index {
	return a.res.Lod()
}

// server is the grain-graph artifact service: a content-addressed store of
// .ggp artifacts with cached analysis views over them. All state is
// per-instance — no package-level pools or registries — so tests run many
// servers in one process and the expt CLI globals stay untouched.
type server struct {
	cfg  serverConfig
	pool *runpool.Runner
	gate *fairGate
	mux  *http.ServeMux

	// Cache tiers, all content-addressed and single-flight: decodes
	// memoizes artifact decodes (either format; columnar v2 arrives
	// analysis-ready), analyses the full metric derivation, renders the
	// final response bytes per (artifact, endpoint, params). The render
	// tier is backed by an on-disk memo (Dir/memo), so a hot artifact
	// serves without re-analysis even across restarts or after in-memory
	// eviction.
	decodes  *runpool.Cache[*ggp.Decoded]
	analyses *runpool.Cache[*analysis]
	renders  *runpool.Cache[[]byte]

	phases   *phaseStats
	requests *requestStats
	start    time.Time
}

func newServer(cfg serverConfig) (*server, error) {
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "memo"), 0o755); err != nil {
		return nil, err
	}
	admit := cfg.Admit
	if admit <= 0 {
		admit = cfg.Workers
	}
	s := &server{
		cfg:      cfg,
		pool:     runpool.New(cfg.Workers),
		gate:     newFairGate(admit),
		mux:      http.NewServeMux(),
		decodes:  runpool.NewCache[*ggp.Decoded](),
		analyses: runpool.NewCache[*analysis](),
		renders:  runpool.NewCache[[]byte](),
		phases:   newPhaseStats(),
		requests: newRequestStats(),
		start:    time.Now(),
	}
	if cfg.AnalysisCap > 0 {
		s.analyses.SetCapacity(cfg.AnalysisCap)
		// Decoded traces are cheaper than analyses, rendered bytes cheaper
		// still; keep proportionally more of each.
		s.decodes.SetCapacity(2 * cfg.AnalysisCap)
		s.renders.SetCapacity(8 * cfg.AnalysisCap)
	}
	s.mux.HandleFunc("POST /artifacts", s.instrument("POST /artifacts", s.handleUpload))
	s.mux.HandleFunc("GET /artifacts/{id}/summary", s.instrument("GET summary", s.query("summary")))
	s.mux.HandleFunc("GET /artifacts/{id}/highlight", s.instrument("GET highlight", s.query("highlight")))
	s.mux.HandleFunc("GET /artifacts/{id}/whatif", s.instrument("GET whatif", s.query("whatif")))
	s.mux.HandleFunc("GET /artifacts/{id}/window", s.instrument("GET window", s.query("window")))
	s.mux.HandleFunc("GET /artifacts/{id}/query", s.instrument("GET query", s.query("query")))
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	if cfg.Debug {
		s.mux.HandleFunc("POST /debug/evict", s.handleEvict)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

func (s *server) Handler() http.Handler { return s.mux }

// httpError is a handler failure with a status code and a structured body.
type httpError struct {
	status int
	body   map[string]any
}

func (e *httpError) Error() string { return fmt.Sprintf("%v", e.body["error"]) }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, body: map[string]any{"error": fmt.Sprintf(format, args...)}}
}

// writeErr renders err as a JSON error response. *httpError carries its own
// status and fields; *export.HugeGraphError maps to 413 with the
// structured "use a window" shape; *query.Error (a malformed or unbindable
// query string) maps to 400 with the offending fragment — the client's
// query is at fault, never the server, so it must not surface as a 500;
// anything else is a 500.
func writeErr(w http.ResponseWriter, err error) {
	var (
		he   *httpError
		huge *export.HugeGraphError
		qe   *query.Error
	)
	switch {
	case errors.As(err, &he):
	case errors.As(err, &huge):
		he = &httpError{status: http.StatusRequestEntityTooLarge, body: map[string]any{
			"error": "graph-too-large",
			"nodes": huge.Nodes,
			"limit": huge.Limit,
			"hint":  "full exports past the limit are refused; use the window endpoint (or narrow depth/top) for a level-of-detail view",
		}}
	case errors.As(err, &qe):
		he = &httpError{status: http.StatusBadRequest, body: map[string]any{
			"error":  "bad-query",
			"src":    qe.Src,
			"detail": qe.Msg,
			"hint":   "grammar: [from grains|tasks |] filter <expr> | groupby <cols> | agg <calls> | sort <col> [asc|desc] | topk <n> [by <col> [asc|desc]] | select <cols>",
		}}
	default:
		he = errf(http.StatusInternalServerError, "%v", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(he.status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(he.body)
}

// tenantOf extracts the declared tenant for fair admission.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// instrument wraps a handler with the per-request observability envelope:
// one obs.Profiler per request, a root span named after the route, phase
// aggregation into /statsz, and the verbose access log.
func (s *server) instrument(route string, h func(*obs.Span, http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		prof := obs.New()
		prof.TrackMem = false // MemStats reads are too hot for a server loop
		root := prof.Begin(route)
		err := h(root, w, r)
		root.End()
		s.requests.record(route, err == nil)
		if spans, serr := prof.Snapshot(); serr == nil {
			s.phases.record(spans)
		}
		if err != nil {
			writeErr(w, err)
		}
		if s.cfg.Verbose {
			status := "ok"
			if err != nil {
				status = err.Error()
			}
			fmt.Fprintf(os.Stderr, "grainserved: %s %s [%s] %s\n",
				r.Method, r.URL.Path, tenantOf(r), status)
		}
	}
}

// parseID decodes an artifact id (lowercase hex content address) into its
// cache key.
func parseID(id string) (runpool.Key, error) {
	raw, err := hex.DecodeString(id)
	var k runpool.Key
	if err != nil || len(raw) != len(k) {
		return k, errf(http.StatusBadRequest, "malformed artifact id %q: want %d hex chars", id, 2*len(k))
	}
	copy(k[:], raw)
	return k, nil
}

// artifactPath is where an artifact's bytes live in the store.
func (s *server) artifactPath(id string) string {
	return filepath.Join(s.cfg.Dir, id+".ggp")
}

// atomicWrite writes data to path via temp file + rename, so concurrent
// writers of the same content-addressed name are safe: identical bytes,
// last rename wins.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// handleUpload is POST /artifacts: content-address the body, validate it
// (CRC trailer + Trace.Validate via the ggp reader), and store it.
// Re-uploading identical bytes is a decode-memo hit — zero re-parse, zero
// re-analysis — and the response says so.
func (s *server) handleUpload(sp *obs.Span, w http.ResponseWriter, r *http.Request) error {
	isp := sp.Child("ingest:read")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	isp.End()
	if err != nil {
		return errf(http.StatusRequestEntityTooLarge, "reading upload: %v", err)
	}
	if len(body) == 0 {
		return errf(http.StatusBadRequest, "empty upload: expected a .ggp artifact body")
	}
	key := runpool.KeyOfBytes(body)
	id := key.Hex()

	dsp := sp.Child("ingest:decode")
	dec, err, hit := s.decodes.Do(key, func() (*ggp.Decoded, error) {
		return ggp.Decode(body, s.pool, sp)
	})
	dsp.End()
	if err != nil {
		return errf(http.StatusBadRequest, "invalid artifact: %v", err)
	}
	tr := dec.Trace

	existed := true
	if _, err := os.Stat(s.artifactPath(id)); err != nil {
		wsp := sp.Child("ingest:store")
		werr := atomicWrite(s.artifactPath(id), body)
		wsp.End()
		if werr != nil {
			return fmt.Errorf("storing artifact: %w", werr)
		}
		existed = false
	}

	w.Header().Set("Content-Type", "application/json")
	if !existed {
		w.WriteHeader(http.StatusCreated)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(map[string]any{
		"id":       id,
		"program":  tr.Program,
		"cores":    tr.Cores,
		"grains":   tr.NumGrains(),
		"existed":  existed,
		"memo_hit": hit,
	})
}

// loadDecoded decodes the stored artifact for key through the decode
// memo. Columnar v2 artifacts arrive with a ready-made graph (and, when
// sidecars are fresh, the lod index and query table too). Load failures
// are forgotten rather than cached: "not found" is store state, not
// content, and must clear once the artifact is uploaded.
func (s *server) loadDecoded(key runpool.Key, sp *obs.Span) (*ggp.Decoded, error) {
	dec, err, _ := s.decodes.Do(key, func() (*ggp.Decoded, error) {
		raw, err := os.ReadFile(s.artifactPath(key.Hex()))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, errf(http.StatusNotFound, "unknown artifact %s: upload it first (POST /artifacts)", key.Hex())
			}
			return nil, err
		}
		return ggp.Decode(raw, s.pool, sp)
	})
	if err != nil {
		s.decodes.Forget(key)
	}
	return dec, err
}

// analysisOf returns the cached full analysis for key, computing it at most
// once per process (single-flight) and evicting by LRU past the capacity
// bound. The analysis runs on the server's own pool via the re-entrant
// expt.AnalyzeDecodedOn — never through the package-global pool. After the
// first analysis of an artifact that lacked derived sidecars, the stored
// artifact is upgraded in place to columnar v2 with sidecars, so the next
// cold decode is analysis-ready without rebuilding anything.
func (s *server) analysisOf(key runpool.Key, sp *obs.Span) (*analysis, error) {
	a, err, _ := s.analyses.Do(key, func() (*analysis, error) {
		dec, err := s.loadDecoded(key, sp)
		if err != nil {
			return nil, err
		}
		res := expt.AnalyzeDecodedOn(s.pool, dec, nil, expt.Config{}, sp)
		return &analysis{res: res, hadSidecars: dec.HasSidecars()}, nil
	})
	if err != nil {
		s.analyses.Forget(key)
		return a, err
	}
	s.upgradeArtifact(a, key, sp)
	return a, nil
}

// upgradeArtifact rewrites the stored artifact as columnar v2 with full
// derived sidecars, once per analysis lifetime, when the decoded form
// lacked them. The artifact keeps its id: ids are content addresses of
// the uploaded bytes (that is what clients hold), and the upgraded file
// decodes to the same trace and graph — re-uploading the original bytes
// still maps to the same id, it just decodes slower than the stored form.
func (s *server) upgradeArtifact(a *analysis, key runpool.Key, sp *obs.Span) {
	a.upgradeOnce.Do(func() {
		if a.hadSidecars {
			return
		}
		// Streamed into a temp file and renamed: the request never holds
		// the artifact as one slice, and a failed write leaves nothing in
		// the store directory.
		err := expt.WriteUpgraded(s.artifactPath(key.Hex()), a.res, s.pool, sp)
		if err != nil && s.cfg.Verbose {
			// Upgrade failures only cost future decode speed, never
			// correctness; the original artifact stays in place.
			fmt.Fprintf(os.Stderr, "grainserved: upgrade %s: %v\n", key.Hex(), err)
		}
	})
}

// rankOf returns the artifact's ranked what-if projections, computed once
// and shared.
func (a *analysis) rankOf(pool *runpool.Runner, sp *obs.Span) ([]whatif.Projection, error) {
	a.rankOnce.Do(func() {
		a.rank, a.rankErr = expt.WhatIfRank(a.res, pool, sp)
	})
	return a.rank, a.rankErr
}

// windowParams extracts ?root=&depth=&top= into lod.WindowOptions.
func windowParams(r *http.Request) (lod.WindowOptions, error) {
	var o lod.WindowOptions
	q := r.URL.Query()
	o.Root = profile.GrainID(q.Get("root"))
	if v := q.Get("depth"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return o, errf(http.StatusBadRequest, "window depth %q: not a number", v)
		}
		o.Depth = n
	}
	if v := q.Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return o, errf(http.StatusBadRequest, "window top %q: not a number", v)
		}
		o.Top = n
	}
	return o, nil
}

// query builds the handler for one read endpoint. Responses are rendered
// through the same expt/export writers grainview uses — byte-identical to
// the CLI for the same artifact — and memoized per (artifact, endpoint,
// params) in memory and on disk, so a hot artifact costs a cache lookup.
func (s *server) query(kind string) func(*obs.Span, http.ResponseWriter, *http.Request) error {
	return func(sp *obs.Span, w http.ResponseWriter, r *http.Request) error {
		id := r.PathValue("id")
		key, err := parseID(id)
		if err != nil {
			return err
		}
		params := ""
		switch kind {
		case "window":
			// Canonical param string: part of the render address, so the
			// same window always hits the same memo entry.
			q := r.URL.Query()
			params = fmt.Sprintf("root=%s,depth=%s,top=%s,format=%s",
				q.Get("root"), q.Get("depth"), q.Get("top"), q.Get("format"))
		case "query":
			// Parse up front: a malformed query fails 400 here, before
			// cache admission or analysis, and never enters the memo.
			params = "q=" + r.URL.Query().Get("q")
			if _, err := query.Parse(r.URL.Query().Get("q")); err != nil {
				return err
			}
		}

		rkey := runpool.KeyOf(id, kind, params)
		body, err, _ := s.renders.Do(rkey, func() ([]byte, error) {
			memoPath := s.memoPath(id, kind, params)
			if b, err := os.ReadFile(memoPath); err == nil {
				sp.Child("render:diskmemo").End()
				return b, nil
			}
			asp := sp.Child("admit")
			release := s.gate.acquire(tenantOf(r))
			asp.End()
			defer release()
			a, err := s.analysisOf(key, sp)
			if err != nil {
				return nil, err
			}
			rsp := sp.Child("render:" + kind)
			b, err := s.render(a, kind, r, sp)
			rsp.End()
			if err != nil {
				return nil, err
			}
			if werr := atomicWrite(memoPath, b); werr != nil {
				return nil, fmt.Errorf("writing render memo: %w", werr)
			}
			return b, nil
		})
		if err != nil {
			// Render failures are not content-addressed facts (the artifact
			// may simply not be uploaded yet) — never serve them from cache.
			s.renders.Forget(rkey)
			return err
		}
		w.Header().Set("Content-Type", contentTypeOf(kind, r))
		_, werr := w.Write(body)
		return werr
	}
}

// memoPath names the on-disk render memo for one (artifact, endpoint,
// params) triple.
func (s *server) memoPath(id, kind, params string) string {
	name := id + "." + kind
	if params != "" {
		name += "-" + runpool.KeyOf(params).Hex()[:16]
	}
	return filepath.Join(s.cfg.Dir, "memo", name)
}

func contentTypeOf(kind string, r *http.Request) string {
	if kind == "window" {
		switch r.URL.Query().Get("format") {
		case "json":
			return "application/json"
		case "graphml":
			return "application/xml"
		}
		return "text/vnd.graphviz; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}

// render produces the response body for one endpoint, through exactly the
// code paths grainview's flags drive.
func (s *server) render(a *analysis, kind string, r *http.Request, sp *obs.Span) ([]byte, error) {
	var buf bytes.Buffer
	switch kind {
	case "summary":
		if err := expt.WriteSummary(&buf, a.res); err != nil {
			return nil, err
		}
	case "highlight":
		if err := expt.WriteHighlight(&buf, a.res); err != nil {
			return nil, err
		}
	case "whatif":
		wsp := sp.Child("whatif")
		ps, err := a.rankOf(s.pool, wsp)
		wsp.End()
		if err != nil {
			return nil, err
		}
		if err := expt.WriteWhatIfTable(&buf, a.res, ps); err != nil {
			return nil, err
		}
	case "query":
		plan, err := query.Parse(r.URL.Query().Get("q"))
		if err != nil {
			return nil, err
		}
		// Both sources read shared per-analysis state (adopted from the
		// artifact's sidecars when present, built once otherwise).
		var t *query.Table
		if plan.Source() == "tasks" {
			isp := sp.Child("lod:index")
			t = a.lod().Table()
			isp.End()
		} else {
			tsp := sp.Child("query:table")
			t = a.res.GrainTable(s.pool)
			tsp.End()
		}
		qsp := sp.Child("query:run")
		out, err := plan.Run(t, s.pool)
		qsp.End()
		if err != nil {
			return nil, err
		}
		if err := query.WriteTable(&buf, out); err != nil {
			return nil, err
		}
	case "window":
		opt, err := windowParams(r)
		if err != nil {
			return nil, err
		}
		isp := sp.Child("lod:index")
		ix := a.lod()
		isp.End()
		qsp := sp.Child("lod:window")
		wg, _, err := ix.Window(opt)
		qsp.End()
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		core.Layout(wg)
		esp := sp.Child("export")
		defer esp.End()
		switch format := r.URL.Query().Get("format"); format {
		case "", "dot":
			err = export.DOTWithWhatIfPool(&buf, wg, a.res.Assessment, export.ViewStructure, nil, s.pool)
		case "json":
			err = export.JSONWithWhatIfPool(&buf, wg, a.res.Assessment, nil, s.pool)
		case "graphml":
			err = export.GraphML(&buf, wg, a.res.Assessment, export.ViewStructure)
		default:
			err = errf(http.StatusBadRequest, "unknown window format %q (want dot, json or graphml)", format)
		}
		if err != nil {
			return nil, err
		}
	default:
		return nil, errf(http.StatusNotFound, "unknown endpoint %q", kind)
	}
	return buf.Bytes(), nil
}

// handleStatsz reports the server's own health: request counts, cache tier
// hit/miss/eviction counters, aggregated request phases, and admission
// queue pressure — the analyzer's self-observability turned on itself.
func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	waits, waited := s.gate.queueStats()
	out := map[string]any{
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"requests":  s.requests.snapshot(),
		"caches": map[string]runpool.CacheStats{
			"decode":   s.decodes.Counters(),
			"analysis": s.analyses.Counters(),
			"render":   s.renders.Counters(),
		},
		"cache_entries": map[string]int{
			"decode":   s.decodes.Len(),
			"analysis": s.analyses.Len(),
			"render":   s.renders.Len(),
		},
		"admission": map[string]any{
			"waits":   waits,
			"wait_ms": waited.Milliseconds(),
		},
		"phases": s.phases.snapshot(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(out)
}

// handleEvict (POST /debug/evict, only registered with -debug) drops
// every warm tier: the in-memory decode/analysis/render caches and the
// on-disk render memo. Stored artifacts stay. grainload -cold calls it
// before each measured request so the request exercises the cold path —
// disk read, decode, analysis — instead of a cache lookup.
func (s *server) handleEvict(w http.ResponseWriter, r *http.Request) {
	s.decodes.Reset()
	s.analyses.Reset()
	s.renders.Reset()
	memoDir := filepath.Join(s.cfg.Dir, "memo")
	removed := 0
	if ents, err := os.ReadDir(memoDir); err == nil {
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			if os.Remove(filepath.Join(memoDir, e.Name())) == nil {
				removed++
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n \"evicted\": true,\n \"memo_files_removed\": %d\n}\n", removed)
}

// phaseStats aggregates span wall time by name across all requests.
type phaseStats struct {
	mu sync.Mutex
	m  map[string]*phaseAgg
}

type phaseAgg struct {
	Count int64 `json:"count"`
	MS    int64 `json:"total_ms"`
	ns    int64
}

func newPhaseStats() *phaseStats { return &phaseStats{m: make(map[string]*phaseAgg)} }

func (p *phaseStats) record(spans []obs.SpanRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sp := range spans {
		agg := p.m[sp.Name]
		if agg == nil {
			agg = &phaseAgg{}
			p.m[sp.Name] = agg
		}
		agg.Count++
		agg.ns += int64(sp.Dur)
	}
}

// snapshot returns the aggregates sorted by total time, descending.
func (p *phaseStats) snapshot() []map[string]any {
	p.mu.Lock()
	defer p.mu.Unlock()
	type row struct {
		name string
		agg  phaseAgg
	}
	rows := make([]row, 0, len(p.m))
	for name, agg := range p.m {
		rows = append(rows, row{name, *agg})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].agg.ns != rows[j].agg.ns {
			return rows[i].agg.ns > rows[j].agg.ns
		}
		return rows[i].name < rows[j].name
	})
	out := make([]map[string]any, len(rows))
	for i, r := range rows {
		out[i] = map[string]any{
			"phase":    r.name,
			"count":    r.agg.Count,
			"total_ms": time.Duration(r.agg.ns).Milliseconds(),
		}
	}
	return out
}

// requestStats counts requests and failures per route.
type requestStats struct {
	mu sync.Mutex
	m  map[string]*reqAgg
}

type reqAgg struct {
	Total  int64 `json:"total"`
	Errors int64 `json:"errors"`
}

func newRequestStats() *requestStats { return &requestStats{m: make(map[string]*reqAgg)} }

func (rs *requestStats) record(route string, ok bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	agg := rs.m[route]
	if agg == nil {
		agg = &reqAgg{}
		rs.m[route] = agg
	}
	agg.Total++
	if !ok {
		agg.Errors++
	}
}

func (rs *requestStats) snapshot() map[string]reqAgg {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[string]reqAgg, len(rs.m))
	for k, v := range rs.m {
		out[k] = *v
	}
	return out
}
