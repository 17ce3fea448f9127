package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/runpool"
)

// A viewing session is what a grainview or grainserved user asks of one
// artifact: summary, highlight table, ranked what-if table, a level-of-
// detail window, a filter/sort/topk query and a group-by query. The same
// six renderings are the artifact-read op, the serve workload's cold op
// and the reference every server response is verified against.

const (
	sessionWindow  = "depth=3,top=8"
	sessionTopK    = "filter benefit < 1 | sort exec desc | topk 10 | select id,loc,exec"
	sessionGroupBy = "groupby depth | agg count, mean(exec), max(exec) | sort depth asc"
)

// renderingNames labels the six renderings, in session order.
var renderingNames = []string{"summary", "highlight", "whatif", "window", "query-topk", "query-groupby"}

// renderWindow renders one window exactly as grainserved's window endpoint
// does (layout, then structure-view DOT), so server responses can be
// compared byte for byte.
func renderWindow(w io.Writer, res *expt.Result, opt lod.WindowOptions, pool *runpool.Runner, sp *span) error {
	c := sp.child("lod.index")
	ix := res.Lod()
	c.end()
	c = sp.child("lod.window")
	wg, _, err := ix.Window(opt)
	c.end()
	if err != nil {
		return err
	}
	sp.in("core.layout", func() { core.Layout(wg) })
	c = sp.child("export.dot")
	err = export.DOTWithWhatIfPool(w, wg, res.Assessment, export.ViewStructure, nil, pool)
	c.end()
	return err
}

// renderQuery renders one query plan; the per-grain table is forced first
// so its one-time build (or sidecar decode) is attributed apart from the run.
func renderQuery(w io.Writer, res *expt.Result, src string, pool *runpool.Runner, sp *span) error {
	sp.in("query.table", func() { res.GrainTable(pool) })
	c := sp.child("query.run")
	err := expt.WriteQuery(w, res, src, pool)
	c.end()
	return err
}

// renderSession produces the six renderings of an analysed artifact.
func renderSession(res *expt.Result, pool *runpool.Runner, sp *span) ([][]byte, error) {
	wopt, err := lod.ParseWindow(sessionWindow)
	if err != nil {
		return nil, err
	}
	steps := []func(w io.Writer) error{
		func(w io.Writer) error {
			c := sp.child("expt.write_summary")
			defer c.end()
			return expt.WriteSummary(w, res)
		},
		func(w io.Writer) error {
			c := sp.child("highlight.table")
			defer c.end()
			return expt.WriteHighlight(w, res)
		},
		func(w io.Writer) error {
			c := sp.child("whatif.rank")
			ps, err := expt.WhatIfRank(res, pool, nil)
			c.end()
			if err != nil {
				return err
			}
			return expt.WriteWhatIfTable(w, res, ps)
		},
		func(w io.Writer) error { return renderWindow(w, res, wopt, pool, sp) },
		func(w io.Writer) error { return renderQuery(w, res, sessionTopK, pool, sp) },
		func(w io.Writer) error { return renderQuery(w, res, sessionGroupBy, pool, sp) },
	}
	out := make([][]byte, len(steps))
	for i, step := range steps {
		var buf bytes.Buffer
		if err := step(&buf); err != nil {
			return nil, fmt.Errorf("rendering %s: %w", renderingNames[i], err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// analyzeFile decodes and analyses the artifact at path.
func analyzeFile(path string, pool *runpool.Runner, sp *span) (*expt.Result, error) {
	c := sp.child("ggp.decode_file")
	dec, err := ggp.DecodeFile(path, pool, nil)
	c.end()
	if err != nil {
		return nil, err
	}
	c = sp.child("expt.analyze_decoded")
	res := expt.AnalyzeDecodedOn(pool, dec, nil, expt.Config{}, nil)
	c.end()
	return res, nil
}

// fileSession is the cold-artifact session: decode, analyse, six renderings.
func fileSession(path string, pool *runpool.Runner, sp *span) ([][]byte, error) {
	res, err := analyzeFile(path, pool, sp)
	if err != nil {
		return nil, err
	}
	return renderSession(res, pool, sp)
}

// digest is the SHA-256 of the parts, length-prefixed so boundaries count.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fileDigest is the SHA-256 of a file, streamed: a written G8 artifact is
// 200 MB and must not count towards the measuring process's resident set.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// verifier turns mismatches into failed ops. The first value seen under a
// key is the reference; a later different value is a failure. There are no
// committed golden bytes: a correctness fix may change output without
// touching the benchmark, and the digests are printed so a reviewer sees
// when bytes moved between commits.
type verifier struct {
	want     map[string]string
	problems []string
}

func newVerifier() *verifier { return &verifier{want: make(map[string]string)} }

// same reports whether got equals the reference for key (setting it on
// first use) and records a problem when it does not.
func (v *verifier) same(key, got string) bool {
	want, ok := v.want[key]
	if !ok {
		v.want[key] = got
		return true
	}
	if want != got {
		v.problems = append(v.problems, fmt.Sprintf("%s: got %.12s, want %.12s", key, got, want))
		return false
	}
	return true
}

// fail records a failed check that is not a digest comparison.
func (v *verifier) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}
