package expt

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graingraph/internal/ggp"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// Record/replay splits the engine's record-once/analyze-many workflow:
// with a record directory set, every keyed simulation that executes also
// writes its trace as a grain-profile artifact named by the run's content
// address (<hex(simKey)>.ggp); with a replay directory set, keyed requests
// load the saved artifact instead of simulating. Artifact decodes are
// memoized by file content hash, so the same bytes decode once per process
// no matter how many figures share the run, and a mutated file is a cache
// miss that decodes (and CRC-checks) fresh.

var (
	artifactDirMu sync.Mutex
	recordDir     string
	replayDir     string

	// artifactMemo deduplicates artifact decodes by content hash.
	artifactMemo = runpool.NewCache[*profile.Trace]()
)

// SetRecordDir makes every subsequent keyed simulation
// write its trace to dir as <hex(simKey)>.ggp (atomically; concurrent
// workers recording the same key write identical bytes). Empty disables
// recording. The directory is created on demand.
func SetRecordDir(dir string) {
	artifactDirMu.Lock()
	defer artifactDirMu.Unlock()
	recordDir = dir
}

// SetReplayDir makes every subsequent keyed simulation request load
// <dir>/<hex(simKey)>.ggp instead of executing the simulator. Requests
// whose artifact is absent fall back to live simulation; a
// present-but-corrupt artifact is an error, not a fallback. Empty disables
// replay.
func SetReplayDir(dir string) {
	artifactDirMu.Lock()
	defer artifactDirMu.Unlock()
	replayDir = dir
}

func artifactDirs() (rec, rep string) {
	artifactDirMu.Lock()
	defer artifactDirMu.Unlock()
	return recordDir, replayDir
}

// ingestNS accumulates wall time spent ingesting grain-profile artifacts
// (file read + CRC-checked decode, including memo-hit waits) across all
// replayed runs, the record/replay counterpart of the analyze-phase timer.
// grainbench reports it per figure so artifact-cache effectiveness is
// visible next to analysis cost.
var ingestNS atomic.Int64

// IngestStats returns the accumulated artifact-ingest wall time.
func IngestStats() time.Duration { return time.Duration(ingestNS.Load()) }

// ArtifactStats reports how many artifact decodes executed and how many
// loads were served from the content-hash cache.
func ArtifactStats() (decodes, hits uint64) { return artifactMemo.Stats() }

// ResetArtifactMemo drops the decode cache (tests use it to measure
// hit/miss behaviour from a clean slate).
func ResetArtifactMemo() { artifactMemo.Reset() }

// artifactPath names the artifact for one simulation key.
func artifactPath(dir string, key runpool.Key) string {
	return filepath.Join(dir, key.Hex()+".ggp")
}

// recordArtifact writes tr under its simulation key. The write is atomic
// (temp file + rename), so concurrent recorders of the same key are safe:
// both write identical bytes and the last rename wins.
func recordArtifact(dir string, key runpool.Key, tr *profile.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record artifact: %w", err)
	}
	if err := ggp.WriteFile(artifactPath(dir, key), tr); err != nil {
		return fmt.Errorf("record artifact: %w", err)
	}
	return nil
}

// loadArtifact loads the artifact for key from dir. found is false when no
// artifact exists (caller falls back to live simulation); any other
// failure — unreadable file, corrupt or invalid artifact — is an error.
// Decodes are memoized by content hash: rereading identical bytes returns
// the shared immutable trace without parsing again.
func loadArtifact(dir string, key runpool.Key) (tr *profile.Trace, found bool, err error) {
	start := time.Now()
	sp := SelfProfiler().Begin("ingest:artifact")
	defer func() {
		ingestNS.Add(int64(time.Since(start)))
		sp.End()
	}()
	raw, rerr := os.ReadFile(artifactPath(dir, key))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("replay artifact: %w", rerr)
	}
	tr, err, _ = artifactMemo.Do(runpool.KeyOfBytes(raw), func() (*profile.Trace, error) {
		// Decode dispatches on version, so replay directories may mix v1
		// and columnar v2 artifacts. The nil pool keeps the decode serial:
		// replayed loads already run one per pool worker, so a parallel
		// decode inside one would only oversubscribe the cores (each
		// fan-out starts goroutines of its own; nesting cannot deadlock).
		dec, err := ggp.Decode(raw, nil, sp)
		if err != nil {
			return nil, err
		}
		return dec.Trace, nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("replay artifact %s: %w", artifactPath(dir, key), err)
	}
	return tr, true, nil
}
