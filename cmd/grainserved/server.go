package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/obs"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
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
	// Debug exposes the test-only /debug/evict endpoint (the benchmark's
	// serve workload uses it to measure cold-path latency). Off by
	// default: eviction is not something production clients should reach.
	Debug bool
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
	// analysis-ready), analyses the full metric derivation — the subject
	// every view renders — and renders the final response bytes per
	// (artifact, view, params). The render tier is backed by an on-disk
	// memo (Dir/memo), so a hot artifact serves without re-analysis even
	// across restarts or after in-memory eviction.
	decodes  *runpool.Cache[*ggp.Decoded]
	analyses *runpool.Cache[*expt.Subject]
	renders  *runpool.Cache[[]byte]

	phases   *tally // per span name: spans, wall ns
	requests *tally // per route: requests, errors
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
		analyses: runpool.NewCache[*expt.Subject](),
		renders:  runpool.NewCache[[]byte](),
		phases:   newTally(),
		requests: newTally(),
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
	for _, v := range expt.Views {
		s.route(v)
	}
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

// route serves view v at GET /artifacts/{id}/<name>.
func (s *server) route(v expt.View) {
	s.mux.HandleFunc("GET /artifacts/{id}/"+v.Name, s.instrument("GET "+v.Name, s.view(v)))
}

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
// query string) maps to 400 with the offending fragment, and
// *expt.ParamError (any other rejected view parameter) to 400 naming the
// view — the client's request is at fault, never the server, so neither
// may surface as a 500; anything else is a 500.
func writeErr(w http.ResponseWriter, err error) {
	var (
		he   *httpError
		huge *export.HugeGraphError
		qe   *query.Error
		pe   *expt.ParamError
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
	case errors.As(err, &pe):
		he = &httpError{status: http.StatusBadRequest, body: map[string]any{
			"error":  "bad-params",
			"view":   pe.View,
			"detail": pe.Err.Error(),
		}}
	default:
		he = errf(http.StatusInternalServerError, "%v", err)
	}
	writeJSON(w, he.status, he.body)
}

// writeJSON writes v as an indented JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

// tenantOf extracts the declared tenant for fair admission.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// handler is one route's body; a returned error becomes the JSON error
// response.
type handler func(*obs.Span, http.ResponseWriter, *http.Request) error

// instrument wraps a handler with the per-request observability envelope:
// one obs.Profiler per request, a root span named after the route, phase
// aggregation into /statsz, and the verbose access log.
func (s *server) instrument(route string, h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		prof := obs.New()
		prof.TrackMem = false // MemStats reads are too hot for a server loop
		root := prof.Begin(route)
		err := func() (err error) {
			// A panic, also one re-raised from a pool worker, fails only
			// this request, as a 500: the server keeps serving, and the
			// cache tiers drop the computation that panicked.
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("internal error: %v", v)
				}
			}()
			return h(root, w, r)
		}()
		root.End()
		failed := int64(0)
		if err != nil {
			failed = 1
		}
		s.requests.add(route, 1, failed)
		if spans, serr := prof.Snapshot(); serr == nil {
			for _, sp := range spans {
				s.phases.add(sp.Name, 1, int64(sp.Dur))
			}
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

	status := http.StatusOK
	if !existed {
		status = http.StatusCreated
	}
	return writeJSON(w, status, map[string]any{
		"id":       id,
		"program":  tr.Program,
		"cores":    tr.Cores,
		"grains":   tr.NumGrains(),
		"existed":  existed,
		"memo_hit": hit,
	})
}

// loadDecoded decodes the stored artifact for key through the decode
// memo. Columnar v2 artifacts with fresh sidecars arrive with the lod
// index and query table too. Load failures
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
// expt.AnalyzeDecodedOn — never through the package-global pool. An
// artifact that lacked derived sidecars is then upgraded in place to
// columnar v2 with sidecars, so the next cold decode is analysis-ready
// without rebuilding anything.
func (s *server) analysisOf(key runpool.Key, sp *obs.Span) (*expt.Subject, error) {
	a, err, _ := s.analyses.Do(key, func() (*expt.Subject, error) {
		dec, err := s.loadDecoded(key, sp)
		if err != nil {
			return nil, err
		}
		res := expt.AnalyzeDecodedOn(s.pool, dec, nil, expt.Config{}, sp)
		if !dec.HasSidecars() {
			s.upgradeArtifact(res, key, sp)
		}
		return &expt.Subject{Res: res}, nil
	})
	if err != nil {
		s.analyses.Forget(key)
	}
	return a, err
}

// upgradeArtifact rewrites the stored artifact as columnar v2 with full
// derived sidecars. The artifact keeps its id: ids are content addresses
// of the uploaded bytes (that is what clients hold), and the upgraded file
// decodes to the same trace and graph — re-uploading the original bytes
// still maps to the same id, it just decodes slower than the stored form.
// The file is streamed into a temp file and renamed: the request never
// holds the artifact as one slice, and a failed write leaves nothing in
// the store directory.
func (s *server) upgradeArtifact(res *expt.Result, key runpool.Key, sp *obs.Span) {
	err := expt.WriteUpgraded(s.artifactPath(key.Hex()), res, s.pool, sp)
	if err != nil && s.cfg.Verbose {
		// Upgrade failures only cost future decode speed, never
		// correctness; the original artifact stays in place.
		fmt.Fprintf(os.Stderr, "grainserved: upgrade %s: %v\n", key.Hex(), err)
	}
}

// view builds the handler for one row of the view table. Responses are
// rendered by the row — the bytes grainview prints for the same artifact —
// and memoized per (artifact, view, params) in memory and on disk, so a hot
// artifact costs a cache lookup.
func (s *server) view(v expt.View) handler {
	return func(sp *obs.Span, w http.ResponseWriter, r *http.Request) error {
		id := r.PathValue("id")
		key, err := parseID(id)
		if err != nil {
			return err
		}
		// Parse and range-check first: a malformed request fails 400 here,
		// before cache admission or analysis, and never enters the memo.
		p, err := v.Parse(r.URL.Query())
		if err != nil {
			return err
		}

		rkey := runpool.KeyOf(id, v.Name, p.Key)
		body, err, _ := s.renders.Do(rkey, func() ([]byte, error) {
			memoPath := s.memoPath(id, v.Name, p.Key)
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
			rsp := sp.Child("render:" + v.Name)
			b, err := v.Render(a, p, s.pool, rsp)
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
		w.Header().Set("Content-Type", p.ContentType)
		_, werr := w.Write(body)
		return werr
	}
}

// memoPath names the on-disk render memo for one (artifact, view, params)
// triple.
func (s *server) memoPath(id, view, params string) string {
	name := id + "." + view
	if params != "" {
		name += "-" + runpool.KeyOf(params).Hex()[:16]
	}
	return filepath.Join(s.cfg.Dir, "memo", name)
}

// handleStatsz reports the server's own health: request counts, cache tier
// hit/miss/eviction counters, aggregated request phases, and admission
// queue pressure — the analyzer's self-observability turned on itself.
func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	waits, waited := s.gate.queueStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"requests":  s.requests.requestRows(),
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
		"phases": s.phases.phaseRows(),
	})
}

// handleEvict (POST /debug/evict, only registered with -debug) drops
// every warm tier: the in-memory decode/analysis/render caches and the
// on-disk render memo. Stored artifacts stay. The benchmark calls it before
// each cold session so its requests exercise the cold path — disk read,
// decode, analysis — instead of a cache lookup.
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
	writeJSON(w, http.StatusOK, map[string]any{"evicted": true, "memo_files_removed": removed})
}

// tally sums two counters per name for /statsz: requests and errors per
// route, spans and wall nanoseconds per phase.
type tally struct {
	mu sync.Mutex
	m  map[string]*[2]int64
}

func newTally() *tally { return &tally{m: make(map[string]*[2]int64)} }

func (t *tally) add(name string, a, b int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.m[name]
	if c == nil {
		c = new([2]int64)
		t.m[name] = c
	}
	c[0] += a
	c[1] += b
}

// phaseRows reports a phase tally as rows sorted by total time,
// descending.
func (t *tally) phaseRows() []map[string]any {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.m))
	for name := range t.m {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := t.m[names[i]][1], t.m[names[j]][1]; a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	out := make([]map[string]any, len(names))
	for i, name := range names {
		c := t.m[name]
		out[i] = map[string]any{"phase": name, "count": c[0], "total_ms": time.Duration(c[1]).Milliseconds()}
	}
	return out
}

// requestRows reports a request tally per route.
func (t *tally) requestRows() map[string]reqAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]reqAgg, len(t.m))
	for route, c := range t.m {
		out[route] = reqAgg{Total: c[0], Errors: c[1]}
	}
	return out
}

type reqAgg struct {
	Total  int64 `json:"total"`
	Errors int64 `json:"errors"`
}
