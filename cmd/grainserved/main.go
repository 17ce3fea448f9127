// Command grainserved serves grain-graph analyses over HTTP: a multi-tenant,
// content-addressed artifact service on top of the same analysis stack the
// grainview CLI drives.
//
//	grainserved -listen :8080 -store /var/lib/graingraph &
//	curl -s -X POST --data-binary @run.ggp localhost:8080/artifacts
//	curl -s localhost:8080/artifacts/<id>/summary
//	curl -s localhost:8080/artifacts/<id>/highlight
//	curl -s localhost:8080/artifacts/<id>/whatif
//	curl -s 'localhost:8080/artifacts/<id>/whatif?spec=cutoff:4,infcores'
//	curl -s 'localhost:8080/artifacts/<id>/window?depth=2&top=8&format=dot'
//	curl -s -G --data-urlencode 'q=filter benefit < 1 | topk 5' localhost:8080/artifacts/<id>/query
//	curl -s localhost:8080/artifacts/<id>/stats
//	curl -s localhost:8080/artifacts/<id>/trace > run.json
//	curl -s localhost:8080/statsz
//
// Each GET /artifacts/<id>/<view> route is a row of the view table
// (expt.Views): it checks the parameters before admission (a malformed one
// is a structured 400) and renders the bytes grainview prints.
//
// Uploads are stored under their content address (sha-256 of the bytes), so
// re-uploading an artifact — or two tenants uploading the same run — never
// re-parses or re-analyzes anything: every view is memoized per artifact in
// memory (bounded, LRU) and on disk. Clients may declare a tenant with the
// X-Tenant header; queued analyses are admitted round-robin across tenants.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:8080", "address to listen on")
		store   = flag.String("store", "", "artifact store directory (required)")
		workers = flag.Int("j", runtime.GOMAXPROCS(0), "analysis pool worker count")
		admit   = flag.Int("admit", 0, "max concurrently admitted analyses (0 = same as -j)")
		cache   = flag.Int("cache", 64, "max in-memory analyzed artifacts (0 = unbounded)")
		verbose = flag.Bool("v", false, "log every request to stderr")
		debug   = flag.Bool("debug", false, "expose POST /debug/evict (drops all warm caches; for cold-path load testing only)")
	)
	flag.Parse()
	if *store == "" {
		fmt.Fprintln(os.Stderr, "grainserved: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	srv, err := newServer(serverConfig{
		Dir:         *store,
		Workers:     *workers,
		AnalysisCap: *cache,
		Admit:       *admit,
		Verbose:     *verbose,
		Debug:       *debug,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "grainserved: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "grainserved: listening on %s (store %s, %d workers)\n",
		*listen, *store, *workers)
	if err := http.ListenAndServe(*listen, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "grainserved: %v\n", err)
		os.Exit(1)
	}
}
