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
	"syscall"
	"time"
)

// userHZ is the unit of utime/stime in /proc/<pid>/stat. Linux reports
// them in USER_HZ, which is 100 on every supported architecture.
const userHZ = 100

// findRoot walks up from the working directory to the module root, so the
// benchmark also runs from inside benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module amp\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module amp above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/ampserved into the benchmark's output directory.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "ampserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ampserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ampserved: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one ampserved process.
type child struct {
	cmd      *exec.Cmd
	pid      int
	addr     string
	httpAddr string
	boot     time.Duration // exec → first PONG
	done     chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs the binary with the benchmark's fixed flags — nothing
// that names a backend, so a changed default shows — and returns once the
// server answers PING. withHTTP adds the expvar endpoint (traced runs).
func startServer(bin, snapDir, restore string, withHTTP bool) (*child, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-shards", "4", "-max-shards", "8", "-snapshot-dir", snapDir}
	if restore != "" {
		args = append(args, "-restore", restore)
	}
	s := &child{addr: addr}
	if withHTTP {
		if s.httpAddr, err = freePort(); err != nil {
			return nil, err
		}
		args = append(args, "-http", s.httpAddr)
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = nil, os.Stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.pid = s.cmd.Process.Pid
	s.done = make(chan struct{})
	go func() { s.cmd.Wait(); close(s.done) }()
	// The listener opens only after -restore has finished, so the first
	// PONG marks a server that is ready with its state loaded.
	deadline := start.Add(60 * time.Second)
	for {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			_, werr := conn.Write([]byte("PING\n"))
			line, rerr := bufio.NewReader(conn).ReadString('\n')
			conn.Close()
			if werr == nil && rerr == nil && strings.TrimSpace(line) == "PONG" {
				s.boot = time.Since(start)
				return s, nil
			}
		}
		if time.Now().After(deadline) || s.exited() {
			s.stop()
			return nil, fmt.Errorf("ampserved did not answer PING on %s", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *child) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// stop terminates the child and waits until it has ended.
func (s *child) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// procSample is what /proc says about the server at one instant.
type procSample struct {
	utime, stime float64 // CPU seconds
	volCtx       int64   // voluntary context switches, all threads
}

// parseProcStat extracts utime and stime (fields 14 and 15) in seconds.
// The command name may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStat(b []byte) (utime, stime float64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no ')' in %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return float64(u) / userHZ, float64(s) / userHZ, nil
}

// parseProcStatus returns the named integer fields of /proc/<pid>/status
// (kB for the Vm* lines).
func parseProcStatus(b []byte) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

func (s *child) sample(withCtx bool) (procSample, error) {
	var ps procSample
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid))
	if err != nil {
		return ps, err
	}
	if ps.utime, ps.stime, err = parseProcStat(b); err != nil {
		return ps, err
	}
	if withCtx {
		tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", s.pid))
		for _, t := range tasks {
			if b, err := os.ReadFile(t); err == nil { // a thread may exit between Glob and read
				ps.volCtx += parseProcStatus(b)["voluntary_ctxt_switches"]
			}
		}
	}
	return ps, nil
}

// memKB reads one Vm* line of the server's status, in kB.
func (s *child) memKB(field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid))
	if err != nil {
		return 0, err
	}
	v, ok := parseProcStatus(b)[field]
	if !ok {
		return 0, fmt.Errorf("/proc/%d/status has no %s", s.pid, field)
	}
	return v, nil
}

// selfCPU is the generator's own user+sys CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// serverStats is the part of a STATS body the benchmark reads.
type serverStats struct {
	backend map[string]string           // "backend" line: family → structure name
	txn     map[string]string           // "txn" line: engine, cm
	op      map[string]int64            // "op <name> count=N …" lines
	hist    map[string]map[string]int64 // "hist <name> count=N sum=N …" lines
}

func kvFields(fields []string) map[string]string {
	m := map[string]string{}
	for _, f := range fields {
		if k, v, ok := strings.Cut(f, "="); ok {
			m[k] = v
		}
	}
	return m
}

func parseStats(body string) (*serverStats, error) {
	st := &serverStats{op: map[string]int64{}, hist: map[string]map[string]int64{}}
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "backend":
			st.backend = kvFields(f[1:])
		case "txn":
			st.txn = kvFields(f[1:])
		case "op":
			st.op[f[1]], _ = strconv.ParseInt(kvFields(f[2:])["count"], 10, 64)
		case "hist":
			kv := kvFields(f[2:])
			h := map[string]int64{}
			h["count"], _ = strconv.ParseInt(kv["count"], 10, 64)
			h["sum"], _ = strconv.ParseInt(kv["sum"], 10, 64)
			st.hist[f[1]] = h
		}
	}
	if st.backend == nil || len(st.op) == 0 {
		return nil, fmt.Errorf("STATS body has no backend line or no op lines")
	}
	return st, nil
}

// parseTxStats reads "engine=… cm=… commits=N aborts=N".
func parseTxStats(line string) (commits, aborts int64, err error) {
	kv := kvFields(strings.Fields(line))
	commits, err1 := strconv.ParseInt(kv["commits"], 10, 64)
	aborts, err2 := strconv.ParseInt(kv["aborts"], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("TXSTATS reply %q", line)
	}
	return commits, aborts, nil
}

// memStats is the part of expvar's runtime.MemStats the benchmark uses.
type memStats struct {
	Mallocs      uint64
	TotalAlloc   uint64
	PauseTotalNs uint64
	NumGC        uint32
}

func parseMemStats(r io.Reader) (memStats, error) {
	var vars struct {
		Memstats *memStats `json:"memstats"`
	}
	if err := json.NewDecoder(r).Decode(&vars); err != nil {
		return memStats{}, fmt.Errorf("debug/vars: %w", err)
	}
	if vars.Memstats == nil {
		return memStats{}, fmt.Errorf("debug/vars has no memstats")
	}
	return *vars.Memstats, nil
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func (s *child) memStats() (memStats, error) {
	resp, err := httpClient.Get("http://" + s.httpAddr + "/debug/vars")
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	return parseMemStats(resp.Body)
}
