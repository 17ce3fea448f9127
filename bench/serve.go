package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"graingraph/internal/expt"
	"graingraph/internal/lod"
	"graingraph/internal/profile"
)

// The serve workload puts the analysis stack behind HTTP: grainserved's
// three single-flight cache tiers, the disk memo and the admission gate.
// It is a closed loop — callers of an analysis server wait for each reply —
// with one client for the cold session and nproc clients for the warm
// scripts.

// scriptLen is how many novel requests one warm script makes: half against
// the giant artifact, half against the five served programs.
const scriptLen = 256

// servedArtifact is one uploaded artifact and what the request generator
// and the verifier need to know about it.
type servedArtifact struct {
	id    string
	tasks []profile.GrainID // valid window roots
	res   *expt.Result      // in-process analysis, the verification reference
}

// request is one GET against an artifact. Exactly one of window and query
// is set; they are what the in-process reference rendering needs.
type request struct {
	art    int
	path   string
	window *lod.WindowOptions
	query  string
}

// requestGen makes seeded scripts of requests no earlier script made: a
// window rooted at a random task with random depth and top, or a top-k
// query with a random threshold. A novel request misses the render tier
// and the disk memo but hits the analysis tier.
type requestGen struct {
	rng  *rand.Rand
	arts []servedArtifact
}

func newRequestGen(seed uint64, arts []servedArtifact) *requestGen {
	return &requestGen{rng: rand.New(rand.NewPCG(seed, 0x6772616e62656e63)), arts: arts}
}

func (g *requestGen) script() []request {
	out := make([]request, scriptLen)
	for i := range out {
		art := 0 // the giant
		if i%2 == 1 && len(g.arts) > 1 {
			art = 1 + g.rng.IntN(len(g.arts)-1)
		}
		a := g.arts[art]
		if i%4 < 2 {
			opt := lod.WindowOptions{
				Root:  a.tasks[g.rng.IntN(len(a.tasks))],
				Depth: 1 + g.rng.IntN(3),
				Top:   2 + g.rng.IntN(14),
			}
			q := url.Values{"root": {string(opt.Root)}, "depth": {fmt.Sprint(opt.Depth)}, "top": {fmt.Sprint(opt.Top)}, "format": {"dot"}}
			out[i] = request{art: art, window: &opt, path: "/artifacts/" + a.id + "/window?" + q.Encode()}
		} else {
			src := fmt.Sprintf("filter exec > %d | sort exec desc | topk %d | select id,loc,exec",
				g.rng.IntN(1_000_000), 5+g.rng.IntN(20))
			out[i] = request{art: art, query: src, path: "/artifacts/" + a.id + "/query?" + url.Values{"q": {src}}.Encode()}
		}
	}
	return out
}

// sessionPaths are the six requests of the cold session, in
// renderingNames order.
func sessionPaths(id string) []string {
	base := "/artifacts/" + id + "/"
	wopt, _ := lod.ParseWindow(sessionWindow) // a constant that parses
	return []string{
		base + "summary",
		base + "highlight",
		base + "whatif",
		base + fmt.Sprintf("window?depth=%d&top=%d&format=dot", wopt.Depth, wopt.Top),
		base + "query?" + url.Values{"q": {sessionTopK}}.Encode(),
		base + "query?" + url.Values{"q": {sessionGroupBy}}.Encode(),
	}
}

// served is a running server with the artifacts uploaded and touched.
type served struct {
	srv      *server
	inputDir string   // where the set-up child wrote the uploaded files
	files    []string // the uploaded files, arts order
	arts     []servedArtifact
	// Timings of the set-up's parts, for the grainserved.* layer metrics.
	uploadS, firstRequestS float64
}

// setUpServer generates the artifacts in a child, starts grainserved on a
// fresh store, uploads every artifact and touches each once, which analyses
// it and upgrades the stored file in place to v2 with sidecars. It returns
// how long that took.
func setUpServer(o options, withPrograms bool) (*served, float64, error) {
	start := time.Now()
	kind := "giant"
	files := []string{giantV1}
	if withPrograms {
		kind = "serve"
		for _, p := range servedPrograms {
			files = append(files, programV1(p))
		}
	}
	dir, err := scratchDir("served-inputs")
	if err != nil {
		return nil, 0, err
	}
	if _, _, err := generateInputs(kind, dir, o.depth(servedDepth), o.seed); err != nil {
		return nil, 0, err
	}
	store, err := scratchDir("store")
	if err != nil {
		return nil, 0, err
	}
	srv, err := startServer(store)
	if err != nil {
		return nil, 0, err
	}
	sv := &served{srv: srv, inputDir: dir, files: files}
	for i, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		id, err := srv.upload(data)
		if err != nil {
			return nil, 0, fmt.Errorf("uploading %s: %w", f, err)
		}
		t1 := time.Now()
		if _, err := srv.get("/artifacts/" + id + "/summary"); err != nil {
			return nil, 0, fmt.Errorf("touching %s: %w", f, err)
		}
		if i == 0 {
			sv.uploadS, sv.firstRequestS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
		}
		sv.arts = append(sv.arts, servedArtifact{id: id})
	}
	return sv, time.Since(start).Seconds(), nil
}

// loadReferences analyses every uploaded file in this process. The
// analyses are the verifier's and the request generator's, not the
// user's: they stay outside setup_s.
func (sv *served) loadReferences() error {
	for i, f := range sv.files {
		res, err := analyzeFile(filepath.Join(sv.inputDir, f), expt.Pool(), nil)
		if err != nil {
			return err
		}
		sv.arts[i].res = res
		for _, t := range res.Trace.Tasks {
			sv.arts[i].tasks = append(sv.arts[i].tasks, t.ID)
		}
	}
	return nil
}

// touchAll asks for every artifact's summary, so that each is decoded and
// analysed in the server's cache tiers.
func (sv *served) touchAll() error {
	for _, a := range sv.arts {
		if _, err := sv.srv.get("/artifacts/" + a.id + "/summary"); err != nil {
			return err
		}
	}
	return nil
}

// coldSession evicts nothing itself: it fetches the six session renderings
// of the giant artifact in sequence from one client.
func (sv *served) coldSession(sp *span) ([][]byte, error) {
	out := make([][]byte, 0, len(renderingNames))
	for i, path := range sessionPaths(sv.arts[0].id) {
		c := sp.child("grainserved." + renderingNames[i])
		body, err := sv.srv.get(path)
		c.end()
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}

// sampledResponse is a warm response kept for verification after the op.
type sampledResponse struct {
	req  request
	body []byte
}

// sampleEvery is how often a warm response is kept and compared with the
// in-process rendering of the same request.
const sampleEvery = 20

// runScripts runs one script per client concurrently, every request
// waiting for its reply. It returns each request's latency and every
// sampleEvery-th response.
func (sv *served) runScripts(scripts [][]request, sp *span) (latencies []float64, samples []sampledResponse, err error) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, script := range scripts {
		wg.Add(1)
		go func(script []request) {
			defer wg.Done()
			c := sp.child("grainserved.script")
			defer c.end()
			for i, req := range script {
				t0 := time.Now()
				body, rerr := sv.srv.get(req.path)
				took := time.Since(t0).Seconds()
				mu.Lock()
				if rerr != nil && err == nil {
					err = rerr
				}
				latencies = append(latencies, took)
				if i%sampleEvery == 0 && rerr == nil {
					samples = append(samples, sampledResponse{req, body})
				}
				mu.Unlock()
			}
		}(script)
	}
	wg.Wait()
	return latencies, samples, err
}

// verifySamples compares kept responses with the in-process rendering of
// the same request on the same artifact.
func (c *runCtx) verifySamples(sv *served, samples []sampledResponse) bool {
	ok := true
	for _, s := range samples {
		var want bytes.Buffer
		var err error
		res := sv.arts[s.req.art].res
		if s.req.window != nil {
			err = renderWindow(&want, res, *s.req.window, c.pool, nil)
		} else {
			err = renderQuery(&want, res, s.req.query, c.pool, nil)
		}
		if err != nil || !bytes.Equal(want.Bytes(), s.body) {
			c.v.fail("response to %s differs from the in-process rendering (err %v)", s.req.path, err)
			ok = false
		}
	}
	return ok
}

func runServe(c *runCtx) error {
	sv, took, err := setUpServer(c.o, true)
	if err != nil {
		return err
	}
	c.res.set("setup_s", "s", took)
	if err := sv.loadReferences(); err != nil {
		return err
	}
	c.res.Inputs["giant grains"] = float64(sv.arts[0].res.Trace.NumGrains())
	c.res.Inputs["giant graph nodes"] = float64(sv.arts[0].res.Graph.NumNodes())

	// The references: the in-process renderings of the cold session.
	want, err := renderSession(sv.arts[0].res, c.pool, nil)
	if err != nil {
		return err
	}
	c.checkRenderings("served session", want)
	c.copyDigests("served session")

	gen := newRequestGen(c.o.seed, sv.arts)
	clients := runtime.NumCPU()
	var (
		got     [][]byte
		samples []sampledResponse
	)
	cold := op{
		kind:  "cold",
		prep:  sv.srv.evict,
		run:   func(sp *span) (err error) { got, err = sv.coldSession(sp); return err },
		check: func() bool { return c.checkRenderings("served session", got) },
	}
	var scripts [][]request
	warm := op{
		kind: "warm",
		prep: func() error {
			scripts = scripts[:0]
			for i := 0; i < clients; i++ {
				scripts = append(scripts, gen.script())
			}
			// The cold op's eviction emptied every tier for every
			// artifact and its session reloaded only the giant: reload
			// the rest here, or the timed scripts would pay five
			// decodes and analyses that "analysis hit" excludes.
			return sv.touchAll()
		},
		run: func(sp *span) (err error) {
			_, samples, err = sv.runScripts(scripts, sp)
			return err
		},
		check: func() bool { return c.verifySamples(sv, samples) },
	}
	if err := c.measure(3, cold, warm, cold, warm); err != nil {
		return err
	}
	stored, err := dirMB(sv.srv.store, "memo")
	if err != nil {
		return err
	}
	rss, _, err := sv.srv.usage()
	if err != nil {
		return err
	}
	// The resident set that matters is the server's, not this client's.
	delete(c.res.Samples, "peak_rss_mb")
	c.res.set("peak_rss_mb", "MB", rss)
	c.res.set("stored_mb", "MB", stored)
	return nil
}
