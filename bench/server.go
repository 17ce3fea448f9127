package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// grainserved is package main, so the benchmark builds it with `go build`
// and drives it as a subprocess: in its own process group, on a port the
// benchmark found free, killed on every exit path.

var (
	serverBuildOnce sync.Once
	serverBinary    string
	serverBuildErr  error
)

// buildServer builds cmd/grainserved into bench/out/.build/, once per
// process.
func buildServer() (string, error) {
	serverBuildOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			serverBuildErr = err
			return
		}
		dir := filepath.Join(root, "bench", "out", ".build")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			serverBuildErr = err
			return
		}
		serverBinary = filepath.Join(dir, "grainserved")
		cmd := exec.Command("go", "build", "-o", serverBinary, "./cmd/grainserved")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			serverBuildErr = fmt.Errorf("go build ./cmd/grainserved: %v\n%s", err, out)
		}
	})
	return serverBinary, serverBuildErr
}

// server is one running grainserved child.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	store  string
	client *http.Client
	stderr bytes.Buffer

	exited   chan struct{} // closed once the child has been waited for
	stopOnce sync.Once
}

// freePort asks the kernel for a port nobody listens on.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts grainserved on store and waits until it answers
// /healthz. The port could be taken between probing and binding, so a
// server that exits before becoming healthy is retried on a new port.
func startServer(store string) (*server, error) {
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s := &server{
			base:   fmt.Sprintf("http://127.0.0.1:%d", port),
			store:  store,
			exited: make(chan struct{}),
			client: &http.Client{
				Timeout:   60 * time.Second,
				Transport: &http.Transport{MaxIdleConnsPerHost: 16},
			},
		}
		s.cmd = exec.Command(bin, "-listen", fmt.Sprintf("127.0.0.1:%d", port),
			"-store", store, "-j", fmt.Sprint(jobs()), "-debug")
		s.cmd.Stderr = &s.stderr
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		if err := s.cmd.Start(); err != nil {
			return nil, err
		}
		go func() {
			s.cmd.Wait() // the exit status is the kill stop sends
			close(s.exited)
		}()
		atExit(s.stop)
		if lastErr = s.waitHealthy(10 * time.Second); lastErr == nil {
			return s, nil
		}
		s.stop()
		lastErr = fmt.Errorf("%w; server stderr: %s", lastErr, strings.TrimSpace(s.stderr.String()))
	}
	return nil, lastErr
}

func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("grainserved exited before listening on %s", s.base)
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("grainserved did not become healthy on %s", s.base)
}

// stop kills the server's process group and waits until it has ended.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
		<-s.exited
		s.client.CloseIdleConnections()
	})
}

// usage stops the server and returns its peak resident set (ru_maxrss) and
// the CPU time it used.
func (s *server) usage() (peakRSSMB, cpuSeconds float64, err error) {
	s.stop()
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0, fmt.Errorf("no rusage for the grainserved child")
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return float64(ru.Maxrss) / 1024, tv(ru.Utime) + tv(ru.Stime), nil
}

// do issues one request and returns the body; any status but 200 (or 201
// for a first upload) is an error, so it can only be a failed op.
func (s *server) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK && !(method == http.MethodPost && resp.StatusCode == http.StatusCreated) {
		return nil, fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, resp.StatusCode, data)
	}
	return data, nil
}

func (s *server) get(path string) ([]byte, error) { return s.do(http.MethodGet, path, nil) }

// upload stores an artifact and returns its id.
func (s *server) upload(data []byte) (string, error) {
	out, err := s.do(http.MethodPost, "/artifacts", data)
	if err != nil {
		return "", err
	}
	var reply struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &reply); err != nil || reply.ID == "" {
		return "", fmt.Errorf("upload reply %.200q has no id (err %v)", out, err)
	}
	return reply.ID, nil
}

// evict drops every warm tier (needs -debug).
func (s *server) evict() error {
	_, err := s.do(http.MethodPost, "/debug/evict", nil)
	return err
}

// statsz is the part of GET /statsz the benchmark reads.
type statsz struct {
	Caches map[string]struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"caches"`
	Admission struct {
		Waits  int64 `json:"waits"`
		WaitMS int64 `json:"wait_ms"`
	} `json:"admission"`
	Phases []struct {
		Phase   string `json:"phase"`
		Count   int64  `json:"count"`
		TotalMS int64  `json:"total_ms"`
	} `json:"phases"`
}

func parseStatsz(data []byte) (statsz, error) {
	var st statsz
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("parsing /statsz: %w", err)
	}
	if st.Caches == nil {
		return st, fmt.Errorf("parsing /statsz: no caches section in %.200q", data)
	}
	return st, nil
}

func (s *server) statsz() (statsz, error) {
	data, err := s.get("/statsz")
	if err != nil {
		return statsz{}, err
	}
	return parseStatsz(data)
}

// servedPhases are the spans of /statsz the benchmark reports as
// grainserved.phase_ms.<name>, ':' written as '-'. The first four are
// families: every span named "<family>:<anything>" (analyze:<program>,
// metric:<kernel>, decode:<section>, assemble:trace|graph), whose members
// never nest inside each other. The rest are single span names.
var servedPhases = []string{
	"analyze", "metric", "decode", "assemble",
	"build", "highlight", "upgrade-ggp2", "whatif", "lod-window", "export", "query-run", "admit",
}

const servedPhaseFamilies = 4

// phaseName maps a /statsz span name to its entry in servedPhases, or "".
func phaseName(span string) string {
	if family, _, ok := strings.Cut(span, ":"); ok {
		for _, f := range servedPhases[:servedPhaseFamilies] {
			if f == family {
				return f
			}
		}
	}
	flat := strings.ReplaceAll(span, ":", "-")
	for _, f := range servedPhases[servedPhaseFamilies:] {
		if f == flat {
			return f
		}
	}
	return ""
}

// statszDelta is what changed between two /statsz snapshots with no
// eviction in between (eviction zeroes the cache counters).
type statszDelta struct {
	Hits, Misses, Evictions map[string]uint64 // by cache tier
	AdmissionWaits          int64
	AdmissionWaitMS         int64
	PhaseMS                 map[string]int64 // by servedPhases entry
}

func (after statsz) since(before statsz) statszDelta {
	d := statszDelta{
		Hits: map[string]uint64{}, Misses: map[string]uint64{}, Evictions: map[string]uint64{},
		AdmissionWaits:  after.Admission.Waits - before.Admission.Waits,
		AdmissionWaitMS: after.Admission.WaitMS - before.Admission.WaitMS,
		PhaseMS:         map[string]int64{},
	}
	for tier, a := range after.Caches {
		b := before.Caches[tier]
		d.Hits[tier] = a.Hits - b.Hits
		d.Misses[tier] = a.Misses - b.Misses
		d.Evictions[tier] = a.Evictions - b.Evictions
	}
	for _, p := range after.Phases {
		if f := phaseName(p.Phase); f != "" {
			d.PhaseMS[f] += p.TotalMS
		}
	}
	for _, p := range before.Phases {
		if f := phaseName(p.Phase); f != "" {
			d.PhaseMS[f] -= p.TotalMS
		}
	}
	return d
}
