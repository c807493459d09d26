package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"amp/internal/snapshot"
)

const (
	segments    = 9               // back-to-back measured segments per run
	warmUp      = 2 * time.Second // unmeasured, on the same connections
	minSetups   = 3               // boots + preloads per untraced run; setup_s is their median
	maxSetups   = 9               // cheap set-ups repeat up to this often,
	setupBudget = time.Second     // while their total stays below this
	preloadWin  = 512             // command lines per preload window
	traceWinCap = 4000            // client.window spans written to a trace file
	snapName    = "ampserved.snap"
)

// runConfig is one invocation: one workload, one seed, one fresh server.
type runConfig struct {
	sp      *spec
	seed    int64
	seconds int
	traced  bool
	bin     string // built ampserved
	outDir  string // benchmark/out
}

// result is everything one run measured.
type result struct {
	Workload  string              `json:"workload"`
	Why       string              `json:"why"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Traced    bool                `json:"traced"`
	Conns     int                 `json:"connections"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Errors    []string            `json:"errors,omitempty"`
	Metrics   map[string]metric   `json:"metrics"`
	Absent    map[string]string   `json:"absent,omitempty"`
	Bands     []band              `json:"bands,omitempty"`
	SelfTime  map[string]selfTime `json:"self_time,omitempty"`
}

// band is one "this workload stresses what it claims" check.
type band struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Got  string `json:"got"`
}

func (r *result) errorf(format string, args ...any) {
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// invariant counts one end-of-run check.
func (r *result) invariant(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.errorf(format, args...)
	}
}

// preloadStreams renders the workload's initial state as command windows,
// keys dealt round-robin to the connections.
func preloadStreams(sp *spec, conns int) []*stream {
	out := make([]*stream, conns)
	for c := range out {
		g := &gen{sp: sp, conn: c, s: &stream{depth: preloadWin}}
		for k := c; k < sp.preSet; k += conns {
			g.emit(vSET, int64(k), 0, expInt)
		}
		for k := c; k < sp.preMap; k += conns {
			g.emit(vHSET, int64(k), 0, expInt)
		}
		for k := c; k < sp.cushion; k += conns {
			g.emit(vENQ, int64(k), 0, expOKFull)
			g.emit(vPUSH, int64(k), 0, expOK)
			g.emit(vPQADD, int64(k), 0, expOKFull)
		}
		// The last window may be short; client.window reads depth replies,
		// so pad it with reads that change nothing.
		for len(g.s.exp)%preloadWin != 0 {
			g.emit(vGET, 0, 0, expInt)
		}
		g.s.winOff = append(g.s.winOff, uint32(len(g.s.cmds)))
		out[c] = g.s
	}
	return out
}

// each runs fn(i) for every connection at once and returns the first error.
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUp boots a server and loads the workload's initial state; it returns
// the time from exec to the last preload reply (for -restore: to the
// first PONG, which the server gives only once the state is loaded).
func setUp(cfg runConfig, snapDir, restore string, pre []*stream) (srv *child, took time.Duration, rssPerKey float64, err error) {
	start := time.Now()
	if srv, err = startServer(cfg.bin, snapDir, restore, cfg.traced); err != nil {
		return nil, 0, 0, err
	}
	if restore != "" {
		return srv, srv.boot, 0, nil
	}
	rssBefore, _ := srv.memKB("VmRSS")
	clients := make([]*client, len(pre))
	err = each(len(pre), func(i int) error {
		c, err := dial(srv.addr, i, pre[i])
		if err != nil {
			return err
		}
		clients[i] = c
		defer c.conn.Close()
		return c.sendAll()
	})
	took = time.Since(start)
	for _, c := range clients {
		if c != nil && c.failed > 0 {
			err = fmt.Errorf("preload: %d replies failed: %s", c.failed, c.firstErr)
		}
	}
	if err != nil {
		srv.stop()
		return nil, 0, 0, err
	}
	rssAfter, _ := srv.memKB("VmRSS")
	rssPerKey = float64(rssAfter-rssBefore) * 1024 / float64(max(cfg.sp.preSet+cfg.sp.preMap, 1))
	return srv, took, rssPerKey, nil
}

// runCtl is how the coordinator steers the connection goroutines.
type runCtl struct {
	stop   atomic.Bool
	rec    atomic.Bool // keep samples (false during warm-up)
	traced atomic.Bool // take the inner timestamps
}

// boundary is what the coordinator samples between segments.
type boundary struct {
	at   int64 // ns since epoch
	proc procSample
	self float64
}

func runWorkload(cfg runConfig) (*result, error) {
	sp := cfg.sp
	conns := min(runtime.NumCPU(), 4)
	res := &result{
		Workload: sp.name, Why: sp.why, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Conns: conns,
		Metrics: map[string]metric{}, Absent: map[string]string{},
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Inputs, all from the seed, before anything is timed.
	total := time.Duration(cfg.seconds)*time.Second + warmUp
	perConn := int(float64(sp.rateCeil)*total.Seconds())/sp.depth/conns + 1
	streams := make([]*stream, conns)
	each(conns, func(i int) error {
		streams[i] = newGen(sp, cfg.seed, i).generate(perConn)
		return nil
	})
	pre := preloadStreams(sp, conns)
	var state *snapshot.State
	restore := ""
	if sp.restore {
		state = synthState(sp)
		restore = filepath.Join(tmp, "seed.snap")
		if _, err := snapshot.Write(restore, state); err != nil {
			return nil, err
		}
	}

	// Set-up, several times over on an untraced run (a traced run reports
	// no setup_s); the last server is the one measured.
	var srv *child
	var setupS []float64
	var rssPerKey float64
	var spent time.Duration
	again := func(i int) bool {
		if cfg.traced {
			return i == 0
		}
		return i < minSetups || i < maxSetups && spent < setupBudget
	}
	for i := 0; again(i); i++ {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		if srv, took, rssPerKey, err = setUp(cfg, tmp, restore, pre); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		spent += took
	}
	defer srv.stop()

	ctl, err := dialControl(srv.addr)
	if err != nil {
		return nil, err
	}
	defer ctl.close()
	clients := make([]*client, conns)
	for i := range clients {
		if clients[i], err = dial(srv.addr, i, streams[i]); err != nil {
			return nil, err
		}
		defer clients[i].conn.Close()
		clients[i].samples = make([]sample, 0, streams[i].windows())
	}
	tx0, _, txErr := txStats(ctl)

	// Load: warm-up, then back-to-back segments on the same connections.
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	var rc runCtl
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(now, &rc)
		}(c)
	}
	var saves *saver
	if sp.saveEvery > 0 {
		if saves, err = startSaver(srv.addr, sp.saveEvery, now, &rc); err != nil {
			return nil, err
		}
	}
	time.Sleep(warmUp)

	m := &measured{clients: clients, stream: streams[0], srv: srv, saves: saves, state: state, rssPerKey: rssPerKey, now: now}
	if cfg.traced {
		if m.first, err = sampleEdge(ctl, srv); err != nil {
			return nil, err
		}
	}
	bounds := make([]boundary, segments+1)
	m.bounds = bounds
	mark := func(i int) error {
		ps, err := srv.sample(cfg.traced && (i == 0 || i == segments))
		bounds[i] = boundary{at: now(), proc: ps, self: selfCPU()}
		return err
	}
	segLen := time.Duration(cfg.seconds) * time.Second / segments
	rc.rec.Store(true)
	if err := mark(0); err != nil {
		return nil, err
	}
	measureStart := time.Now()
	for i := 1; i <= segments; i++ {
		// On a traced run the odd segments take the inner timestamps and
		// the even ones do not; their ratio is the cost of tracing.
		rc.traced.Store(cfg.traced && i%2 == 0)
		time.Sleep(time.Until(measureStart.Add(time.Duration(i) * segLen)))
		if err := mark(i); err != nil {
			return nil, err
		}
	}
	rc.rec.Store(false)
	if cfg.traced {
		if m.last, err = sampleEdge(ctl, srv); err != nil {
			return nil, err
		}
	}
	rc.stop.Store(true)
	waitOrClose(&wg, clients)
	if saves != nil {
		saves.wait()
	}

	// Correctness: every reply was checked as it arrived; now the
	// workload's end-of-run invariants.
	for _, c := range clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != "" {
			res.errorf("%s", c.firstErr)
		}
	}
	if saves != nil {
		res.Attempted += int64(len(saves.rtts)) + saves.failed
		res.Failed += saves.failed
	}
	if res.Failed == 0 { // a broken connection makes the invariants meaningless
		if sp.txn {
			checkTransfers(res, sp, ctl, clients, tx0, txErr)
		}
		if sp.restore {
			checkSnapshot(res, sp, ctl, filepath.Join(tmp, snapName), cfg.seed)
		}
	}

	// End-to-end metrics: per segment, then the median of segments.
	segs := segmentStats(clients, bounds)
	res.Metrics["throughput_ops_s"] = ofSegments(segs.tput, "commands/s")
	p50 := ofSegments(segs.p50, "us")
	p50.Samples = segs.windows
	res.Metrics["latency_p50_us"] = p50
	p99 := ofSegments(segs.p99, "us")
	p99.Samples = segs.windows
	res.Metrics["latency_p99_us"] = p99
	res.Metrics["latency_p999_us"] = metric{Value: float64(percentile(segs.all, 99.9)) / 1e3, Unit: "us", Samples: segs.windows}
	res.Metrics["cpu_us_per_op"] = ofSegments(segs.cpu, "us")
	hwm, err := srv.memKB("VmHWM")
	if err != nil {
		return nil, err
	}
	res.Metrics["rss_mb"] = metric{Value: float64(hwm) / 1024, Unit: "MiB"}
	lo, hi := minMax(setupS)
	res.Metrics["setup_s"] = metric{Value: median(setupS), Unit: "s", Min: lo, Max: hi, Segments: setupS}
	res.Metrics["error_rate"] = metric{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "failed/attempted"}

	if cfg.traced {
		m.segs = segs
		if err := traceLayers(cfg, res, m); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// edgeSample is what a traced run reads from the server at the first and
// the last segment boundary.
type edgeSample struct {
	stats           *serverStats
	commits, aborts int64
	txErr           error // TXSTATS answers ERR with -txn off
	mem             memStats
}

func sampleEdge(ctl *control, srv *child) (e edgeSample, err error) {
	body, err := ctl.stats()
	if err != nil {
		return e, err
	}
	if e.stats, err = parseStats(body); err != nil {
		return e, err
	}
	e.commits, e.aborts, e.txErr = txStats(ctl)
	e.mem, err = srv.memStats()
	return e, err
}

// measured is what the load phase hands to the per-layer reduction.
type measured struct {
	clients     []*client
	stream      *stream // connection 0's, for the replays
	srv         *child
	saves       *saver          // nil unless the workload saves
	state       *snapshot.State // nil unless the workload restores
	rssPerKey   float64
	now         func() int64
	bounds      []boundary
	segs        segStats
	first, last edgeSample
}

// traceLayers computes the per-layer metrics of a traced run, runs the
// replays, and writes the spans out.
func traceLayers(cfg runConfig, res *result, m *measured) error {
	sp := cfg.sp
	tr := &tracer{}
	root := tr.add(0, "workload", sp.name, 0, m.now())
	l := newLayers()
	ops := m.segs.totalOps
	first, last := m.bounds[0], m.bounds[segments]
	wall := float64(last.at-first.at) / 1e9
	segIDs := make([]int, segments)
	for i := range segIDs {
		name := "segment"
		if i%2 == 1 {
			name = "segment.traced" // its sampled windows hang below it
		}
		segIDs[i] = tr.add(root, name, strconv.Itoa(i), m.bounds[i].at, m.bounds[i+1].at)
	}
	clientLayers(l, tr, segIDs, m.bounds, m.clients, m.segs)
	wraps := 0
	for _, c := range m.clients {
		wraps += c.wraps
	}
	l.set("client.stream_wraps", float64(wraps), "count")
	l.set("client.cpu_us_per_op", (last.self-first.self)*1e6/ops, "us")
	l.set("client.segment_spread", spread(m.segs.tput), "ratio")
	l.set("ampserved.cpu_user_us_per_op", (last.proc.utime-first.proc.utime)*1e6/ops, "us")
	l.set("ampserved.cpu_sys_us_per_op", (last.proc.stime-first.proc.stime)*1e6/ops, "us")
	cpu := last.proc.utime + last.proc.stime - first.proc.utime - first.proc.stime
	l.set("ampserved.util_cores", cpu/wall, "cores")
	l.set("ampserved.ctx_switches_per_op", float64(last.proc.volCtx-first.proc.volCtx)/ops, "count")
	l.set("ampserved.boot_ms", float64(m.srv.boot)/1e6, "ms")
	mem0, mem1 := m.first.mem, m.last.mem
	l.set("ampserved.mallocs_per_op", float64(mem1.Mallocs-mem0.Mallocs)/ops, "count")
	l.set("ampserved.alloc_bytes_per_op", float64(mem1.TotalAlloc-mem0.TotalAlloc)/ops, "B")
	l.set("ampserved.gc_pause_us_per_s", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e3/wall, "us/s")
	batchMean := serverLayers(l, m.first.stats, m.last.stats, ops)
	if err := m.last.txErr; err != nil {
		l.miss(fmt.Sprintf("TXSTATS gave no counters: %v", err), "txn.commits_s", "txn.abort_ratio")
	} else {
		commits, aborts := float64(m.last.commits-m.first.commits), float64(m.last.aborts-m.first.aborts)
		l.set("txn.commits_s", commits/wall, "1/s")
		l.set("txn.abort_ratio", aborts/max(commits+aborts, 1), "ratio")
	}
	if !sp.restore && sp.preMap >= 10000 { // fewer keys drown in the process's own noise
		l.set("txn.rss_bytes_per_key", m.rssPerKey, "B")
	}
	if m.saves != nil {
		m.saves.layers(l, tr, root, m.clients)
	}

	rp, err := newReplayer(tr, root, m.now, sp, m.stream)
	if err != nil {
		return err
	}
	rp.parse(l)
	handoff := rp.handoff(l)
	if batchMean > 0 {
		perBatchUs := batchMean * res.Metrics["cpu_us_per_op"].Value
		l.set("mailbox.handoff_share", handoff/1e3/perBatchUs, "ratio")
	}
	st := m.last.stats
	rp.observe(l, st)
	rp.hashset(l, st)
	rp.keyspace(l, st)
	if sp.cycle != nil {
		rp.pools(l, st)
	}
	if m.state != nil {
		if err := rp.snapshotCodec(l, m.state); err != nil {
			return err
		}
	}
	tr.spans[root-1].End = m.now()

	for k, v := range l.vals {
		res.Metrics[k] = v
	}
	res.Absent = l.absent
	for _, name := range []string{"internal/strmap", "internal/epoch", "internal/adaptive", "server.execute (L1)", "server.engine (L2)"} {
		res.Absent[name] = "not measured: off the default-flag path or unexported, see README"
	}
	res.Bands = bands(sp, res)
	res.SelfTime = selfTimes(tr.spans)
	return tr.write(filepath.Join(cfg.outDir, sp.name+".trace.json"), sp.name, cfg.seed, res.SelfTime)
}

// loop sends windows until the coordinator says stop.
func (c *client) loop(now func() int64, rc *runCtl) {
	for !rc.stop.Load() {
		if err := c.window(now, rc.rec.Load(), rc.traced.Load()); err != nil {
			if c.firstErr == "" {
				c.firstErr = err.Error()
			}
			return
		}
	}
}

// waitOrClose waits for the connection goroutines; one stuck on a reply
// that never comes is released by closing its connection, and the missing
// replies count as failed.
func waitOrClose(wg *sync.WaitGroup, clients []*client) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		for _, c := range clients {
			c.conn.Close()
		}
		<-done
	}
}

func txStats(ctl *control) (commits, aborts int64, err error) {
	line, err := ctl.one("TXSTATS")
	if err != nil {
		return 0, 0, err
	}
	return parseTxStats(line)
}

// segStats holds the per-segment end-to-end values.
type segStats struct {
	tput, p50, p99, cpu []float64
	windows             int
	totalOps            float64
	lat                 [][]int64 // per segment, ascending window turnarounds in ns
	all                 []int64   // the same, pooled over the run
}

// segmentStats assigns every recorded window to the segment it completed
// in and reduces each segment on its own.
func segmentStats(clients []*client, b []boundary) segStats {
	var s segStats
	s.lat = make([][]int64, segments)
	for _, c := range clients {
		seg := 0
		for _, sm := range c.samples {
			for seg < segments && sm.end >= b[seg+1].at {
				seg++
			}
			if seg == segments {
				break
			}
			if sm.end >= b[seg].at {
				s.lat[seg] = append(s.lat[seg], sm.end-sm.start)
			}
		}
	}
	depth := float64(clients[0].s.depth)
	for i, lat := range s.lat {
		slices.Sort(lat)
		ops := float64(len(lat)) * depth
		dur := float64(b[i+1].at-b[i].at) / 1e9
		cpu := b[i+1].proc.utime + b[i+1].proc.stime - b[i].proc.utime - b[i].proc.stime
		s.tput = append(s.tput, ops/dur)
		s.p50 = append(s.p50, float64(percentile(lat, 50))/1e3)
		s.p99 = append(s.p99, float64(percentile(lat, 99))/1e3)
		s.cpu = append(s.cpu, cpu*1e6/max(ops, 1))
		s.windows += len(lat)
		s.totalOps += ops
		s.all = append(s.all, lat...)
	}
	slices.Sort(s.all)
	return s
}
