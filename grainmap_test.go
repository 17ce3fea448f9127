package graingraph_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// grainMapAllowed lists the only non-test files that may declare a map
// keyed by grain ID. Every other per-grain association is a slice indexed
// by grain number (profile.Numbering); a map[profile.GrainID]… anywhere
// else re-hashes every grain's ID string in a pass that already has its
// number. To add a file here, say in its comment why the IDs it hashes have
// no number yet.
var grainMapAllowed = map[string]string{
	"internal/profile/numbering.go": "the one id → number index, for IDs that arrive from outside",
	"internal/core/graph.go":        "grains a hand-assembled graph names that its trace does not record",
}

var grainMapRE = regexp.MustCompile(`map\[(profile\.)?GrainID\]`)

// TestNoGrainIDMaps fails when a map keyed by grain ID appears in non-test
// code outside the allow-list, so the hashing cannot creep back one helper
// at a time.
func TestNoGrainIDMaps(t *testing.T) {
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/out holds the benchmark's build cache and scratch.
			if path == filepath.Join("bench", "out") || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if i := strings.Index(text, "//"); i >= 0 {
				text = text[:i]
			}
			// Only internal/profile may spell the type without its package.
			m := grainMapRE.FindStringSubmatch(text)
			if m == nil || (m[1] == "" && filepath.Dir(path) != filepath.Join("internal", "profile")) {
				continue
			}
			p := filepath.ToSlash(path)
			seen[p] = true
			if _, ok := grainMapAllowed[p]; !ok {
				t.Errorf("%s:%d: map keyed by grain ID; index a slice by grain number instead (see profile.Numbering)", p, line)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range grainMapAllowed {
		if !seen[p] {
			t.Errorf("%s is allow-listed but no longer declares a grain-ID map: drop it from grainMapAllowed", p)
		}
	}
}
