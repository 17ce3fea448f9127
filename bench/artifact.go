package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"graingraph/internal/expt"
	"graingraph/internal/ggp"
)

// artifact-read is the grainview cold-artifact wait: file -> decode ->
// analyse -> the six renderings. Cold reads the v1 event stream (builds
// the graph, the lod index and the query table); warm reads the same run
// as v2 with sidecars (adopts columns, decodes the sidecars). The simulator
// does nothing in either.
func runArtifactRead(c *runCtx) error {
	dir, info, took, err := setUpInputs("giant-v2s", "read", c.o.depth(giantDepth), c.o.seed)
	if err != nil {
		return err
	}
	c.res.set("setup_s", "s", took)
	c.res.Inputs["giant grains"] = float64(info.Grains)
	c.res.Inputs["giant graph nodes"] = float64(info.Nodes)

	var got [][]byte
	session := func(kind, file string) op {
		return op{
			kind: kind,
			run: func(sp *span) (err error) {
				got, err = fileSession(filepath.Join(dir, file), c.pool, sp)
				return err
			},
			// One reference for both formats and every repetition: v1 and
			// v2+sidecars sessions must render identical bytes.
			check: func() bool { return c.checkRenderings("session", got) },
		}
	}
	cold := session("cold", giantV1)
	if err := c.measure(2, cold, session("warm", giantV2S), cold); err != nil {
		return err
	}
	c.copyDigests("session")
	stored, err := dirMB(dir, "")
	if err != nil {
		return err
	}
	c.finishInProcess(stored)
	return nil
}

// checkRenderings compares each of a session's six renderings with the
// reference under prefix.
func (c *runCtx) checkRenderings(prefix string, got [][]byte) bool {
	ok := len(got) == len(renderingNames)
	if !ok {
		c.v.fail("%s: %d renderings, want %d", prefix, len(got), len(renderingNames))
		return false
	}
	for i, name := range renderingNames {
		if !c.v.same(prefix+" "+name, digest(got[i])) {
			ok = false
		}
	}
	return ok
}

// copyDigests publishes the reference digests under prefix in the result.
func (c *runCtx) copyDigests(prefix string) {
	for k, d := range c.v.want {
		if strings.HasPrefix(k, prefix+" ") {
			c.res.Digests[k] = d
		}
	}
}

// artifact-write uses the same codecs as writers: the server's in-request
// upgrade and `grainbench -record -ggp-v2`. Cold starts from a freshly
// analysed result, derives the sidecars (builds the lod index and the
// query table) and writes v2; warm, with everything derived cached, writes
// v1 and v2+sidecars.
func runArtifactWrite(c *runCtx) error {
	dir, info, took, err := setUpInputs("giant", "write", c.o.depth(giantDepth), c.o.seed)
	if err != nil {
		return err
	}
	c.res.set("setup_s", "s", took)
	c.res.Inputs["giant grains"] = float64(info.Grains)
	c.res.Inputs["giant graph nodes"] = float64(info.Nodes)

	dst, err := scratchDir("written")
	if err != nil {
		return err
	}
	// One untimed analysis serves every repetition: a cold op gets a new
	// Result over the same trace, graph, report and assessment, which is
	// the state an analysis leaves before anything is derived from it.
	analysed, err := analyzeFile(filepath.Join(dir, giantV1), c.pool, nil)
	if err != nil {
		return err
	}
	var summary bytes.Buffer
	if err := expt.WriteSummary(&summary, analysed); err != nil {
		return err
	}
	var (
		res      *expt.Result
		coldV2   = filepath.Join(dst, "cold.v2s.ggp")
		warmV1   = filepath.Join(dst, "warm.v1.ggp")
		warmV2   = filepath.Join(dst, "warm.v2s.ggp")
		rendered = make(map[string]bool)
	)
	// The input file's content has just been decoded and rendered.
	input, err := fileDigest(filepath.Join(dir, giantV1))
	if err != nil {
		return err
	}
	rendered[input] = true
	// written checks one written artifact: its bytes equal every earlier
	// repetition's, and (once per distinct content) it decodes and renders
	// the summary the in-memory analysis renders.
	written := func(key, path string) bool {
		d, err := fileDigest(path)
		if err != nil {
			c.v.fail("%s: %v", key, err)
			return false
		}
		if !c.v.same(key, d) {
			return false
		}
		if rendered[d] {
			return true
		}
		back, err := analyzeFile(path, c.pool, nil)
		if err != nil {
			c.v.fail("%s does not decode: %v", key, err)
			return false
		}
		var buf bytes.Buffer
		if err := expt.WriteSummary(&buf, back); err != nil || !bytes.Equal(buf.Bytes(), summary.Bytes()) {
			c.v.fail("%s re-renders a different summary (err %v)", key, err)
			return false
		}
		rendered[d] = true
		return true
	}
	// replace removes the previous repetition's file at the last moment
	// before its successor is written. On this host's ext4 a large write
	// that follows the unlink at once costs 0.06 s, one that follows it by
	// seconds (or replaces the file by rename) 1 to 4 s, at random.
	replace := func(path string, write func() error) error {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return write()
	}
	cold := op{
		kind: "cold",
		prep: func() error {
			res = &expt.Result{Trace: analysed.Trace, Graph: analysed.Graph, Report: analysed.Report, Assessment: analysed.Assessment}
			return nil
		},
		run: func(sp *span) error {
			c1 := sp.child("expt.sidecars")
			side := expt.Sidecars(res, c.pool)
			c1.end()
			c2 := sp.child("ggp.write_v2s")
			defer c2.end()
			return replace(coldV2, func() error { return ggp.WriteFileV2(coldV2, res.Trace, res.Graph, side) })
		},
		check: func() bool { return written("written v2s", coldV2) },
	}
	warm := op{
		kind: "warm",
		run: func(sp *span) error {
			c1 := sp.child("ggp.write_v1")
			err := replace(warmV1, func() error { return ggp.WriteFile(warmV1, res.Trace) })
			c1.end()
			if err != nil {
				return err
			}
			c2 := sp.child("expt.sidecars")
			side := expt.Sidecars(res, c.pool)
			c2.end()
			c3 := sp.child("ggp.write_v2s")
			defer c3.end()
			return replace(warmV2, func() error { return ggp.WriteFileV2(warmV2, res.Trace, res.Graph, side) })
		},
		check: func() bool {
			v1 := written("written v1", warmV1)
			return written("written v2s", warmV2) && v1
		},
	}
	// Both ops are discarded once: a file's first write costs seconds more
	// than any later one.
	if err := c.measure(2, cold, warm, cold, warm); err != nil {
		return err
	}
	c.copyDigests("written")
	v1, err := os.Stat(warmV1)
	if err != nil {
		return fmt.Errorf("stored_mb: %w", err)
	}
	v2, err := os.Stat(warmV2)
	if err != nil {
		return fmt.Errorf("stored_mb: %w", err)
	}
	c.finishInProcess(float64(v1.Size()+v2.Size()) / (1 << 20))
	return nil
}
