// The system under test: clxd (and, for fleet-mix, a follower and
// clxproxy) spawned as child processes from the freshly built binaries,
// each on a loopback port, with its access log in the run directory.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one spawned binary. done closes once Wait has returned.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{}
	// base and pprof are a server's API and -pprof base URLs.
	base, pprof string
}

func startProc(bin, name, logPath string, args ...string) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon is not interesting
		f.Close()
		liveMu.Lock()
		delete(live, p)
		liveMu.Unlock()
		close(p.done)
	}()
	return p, nil
}

// live holds every started process that has not exited yet.
var (
	liveMu sync.Mutex
	live   = map[*proc]bool{}
)

// stopAll stops every live process and waits for each.
func stopAll() {
	liveMu.Lock()
	ps := make([]*proc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// stop asks the process to shut down (clxd flushes its registry on
// SIGTERM), kills it after a grace period, and waits until it has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// cpuTicks returns the process's user+system CPU time in clock ticks
// (USER_HZ, 100 per second on Linux) from /proc/<pid>/stat.
func (p *proc) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %s", p.name)
	}
	return utime + stime, nil
}

// peakRSSKB returns VmHWM, the process's resident-set high-water mark.
func (p *proc) peakRSSKB() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

const ticksPerSecond = 100

// sut is one running system under test. base is the URL the load
// generator talks to; nodes are the clxd processes behind it.
type sut struct {
	procs []*proc
	base  string
	nodes []*proc
}

func (s *sut) stop() {
	// Stop the front first so nothing is forwarded to a stopping node.
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop()
	}
}

// cpuTicks sums CPU ticks over every SUT process.
func (s *sut) cpuTicks() (int64, error) {
	var total int64
	for _, p := range s.procs {
		t, err := p.cpuTicks()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// peakRSSMB is the largest VmHWM among the SUT processes.
func (s *sut) peakRSSMB() (float64, error) {
	var peak int64
	for _, p := range s.procs {
		kb, err := p.peakRSSKB()
		if err != nil {
			return 0, err
		}
		peak = max(peak, kb)
	}
	return float64(peak) / 1024, nil
}

// mallocs sums the heap objects every clxd node has allocated since it
// started (runtime.MemStats.Mallocs, read from its pprof listener).
func (s *sut) mallocs() (int64, error) {
	var total int64
	for _, p := range s.nodes {
		resp, err := probeClient.Get(p.pprof + "/debug/pprof/heap?debug=1")
		if err != nil {
			return 0, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		_, rest, ok := bytes.Cut(raw, []byte("\n# Mallocs = "))
		if !ok {
			return 0, fmt.Errorf("%s: no Mallocs in its heap profile", p.name)
		}
		line, _, _ := bytes.Cut(rest, []byte("\n"))
		n, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// logs returns the access-log paths of the clxd nodes.
func (s *sut) logs() []string {
	var out []string
	for _, p := range s.nodes {
		out = append(out, p.log)
	}
	return out
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawnHTTP starts a server binary on a fresh loopback port and waits for
// its /healthz. A port taken between probe and bind makes the child exit;
// that is retried on another port.
func spawnHTTP(bin, name, logPath string, args func(addr string) []string) (*proc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		p, err := startProc(bin, name, logPath, args(addr)...)
		if err != nil {
			return nil, err
		}
		p.base = "http://" + addr
		if err := waitHealthy(p); err != nil {
			p.stop()
			lastErr = err
			continue
		}
		return p, nil
	}
	return nil, lastErr
}

var probeClient = &http.Client{Timeout: 5 * time.Second}

func waitHealthy(p *proc) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log)
		}
		resp, err := probeClient.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("%s not healthy within 20s", p.name)
}

// copyDir copies the flat fixture store directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// startSUT spawns the SUT for a workload over a fresh copy of the fixture
// store and returns it once ready, with the time from the first spawn to
// ready. Ready means every fixture program has served one warm-up apply
// on every node and, with a follower, the follower's registry
// fingerprint equals the leader's.
func startSUT(cfg *config, fx *fixture, fleet bool, dir string) (*sut, time.Duration, error) {
	if err := copyDir(fx.dir, filepath.Join(dir, "node0")); err != nil {
		return nil, 0, err
	}
	clxd := filepath.Join(cfg.bin, "clxd")
	spawnNode := func(name, store, followers string) (*proc, error) {
		pport, err := freePort()
		if err != nil {
			return nil, err
		}
		pprof := fmt.Sprintf("127.0.0.1:%d", pport)
		p, err := spawnHTTP(clxd, name, filepath.Join(dir, name+".log"), func(addr string) []string {
			a := []string{"-addr", addr, "-workers", "1", "-store", store, "-log-format", "json", "-pprof", pprof}
			if followers != "" {
				a = append(a, "-followers", followers)
			}
			return a
		})
		if p != nil {
			p.pprof = "http://" + pprof
		}
		return p, err
	}
	s := &sut{}
	t0 := time.Now()
	fail := func(err error) (*sut, time.Duration, error) {
		s.stop()
		return nil, 0, err
	}
	if fleet {
		// The follower comes up empty; the leader resyncs it by snapshot.
		f, err := spawnNode("follower", filepath.Join(dir, "node1"), "")
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, f)
		l, err := spawnNode("leader", filepath.Join(dir, "node0"), f.base)
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, l)
		s.nodes = []*proc{l, f}
		px, err := spawnHTTP(filepath.Join(cfg.bin, "clxproxy"), "clxproxy",
			filepath.Join(dir, "proxy.log"), func(addr string) []string {
				return []string{"-addr", addr, "-nodes", l.base + "," + f.base, "-policy", "round-robin"}
			})
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, px)
		s.base = px.base
		if err := waitConverged(l.base, f.base); err != nil {
			return fail(err)
		}
	} else {
		n, err := spawnNode("clxd", filepath.Join(dir, "node0"), "")
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, n)
		s.nodes = []*proc{n}
		s.base = n.base
	}
	for _, node := range s.nodes {
		for _, id := range fx.ids {
			status, body, err := postJSON(probeClient, node.base+"/v1/programs/"+id+"/apply", fx.warmup[id])
			if err != nil || status != http.StatusOK {
				return fail(fmt.Errorf("warm-up apply of %s on %s: status %d %v %s", id, node.name, status, err, body))
			}
		}
	}
	return s, time.Since(t0), nil
}

// waitConverged polls both nodes' replication status until their
// registry fingerprints agree.
func waitConverged(leader, follower string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		a, errA := fingerprint(leader)
		b, errB := fingerprint(follower)
		if errA == nil && errB == nil && a == b {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("follower did not converge on the leader within 30s")
}

func fingerprint(base string) (string, error) {
	resp, err := probeClient.Get(base + "/v1/replication/status")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.Fingerprint, nil
}

func postJSON(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// serverDurations reads the clxd access logs: request id → handler
// duration as the node measured it.
func serverDurations(paths []string) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte(`{"ts"`)) {
				continue
			}
			var e struct {
				Msg        string  `json:"msg"`
				RequestID  string  `json:"request_id"`
				DurationMS float64 `json:"duration_ms"`
			}
			if json.Unmarshal(line, &e) != nil || e.Msg != "request" {
				continue
			}
			out[e.RequestID] = time.Duration(e.DurationMS * float64(time.Millisecond))
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
