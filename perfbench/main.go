// Command perfbench is the repository's benchmark. It builds nothing
// itself: run.sh builds memnode, magecache, magesim and this program,
// then runs it from the root of a checkout:
//
//	bash perfbench/run.sh --workload kv-zipf --seed 1 --seconds 16 --trace 0
//
// A KV workload starts memnode (4 nodes) and magecache over a 2-shard x
// 2-replica cluster of them as child processes, prefills every key,
// then drives GET/SET traffic through magecache's text protocol: a
// closed loop for throughput and an open loop at a fixed offered rate
// for latency. Then magesim regenerates the workload's DES experiments
// and their tables are checked against pinned digests. With --trace 0
// the run reports the end-to-end metrics. With --trace 1 it records a
// span around every call it makes into a layer, walks the layer ladder
// (memmove, memnode over shm and TCP, memcluster, upager, magecache)
// and the DES layers, writes the spans as a Chrome trace under
// .bench_build/, and reports the per-layer metrics.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mage/internal/memcluster"
	"mage/internal/memnode"
)

// workloadDef is one benchmark workload: the KV traffic it offers and
// the DES experiments magesim regenerates in the same run.
type workloadDef struct {
	name string
	mix  mix
	rate float64 // open-loop offered rate, ops/s
	exps []string
	// desRuns is how many times magesim regenerates exps; the run
	// reports the medians.
	desRuns int
}

// Every run measures both stacks, because every run reports every
// end-to-end metric. kv-zipf and kv-churn load the KV stack and run only
// the claims table as the DES reference; des-repro regenerates five
// experiments and offers the kv-zipf traffic as its KV reference.
var workloads = []workloadDef{
	{name: "kv-zipf", mix: mix{zipf: true, setFrac: 0.1}, rate: 12000, exps: []string{"claims"}, desRuns: 3},
	{name: "kv-churn", mix: mix{zipf: false, setFrac: 0.5}, rate: 6000, exps: []string{"claims"}, desRuns: 3},
	{name: "des-repro", mix: mix{zipf: true, setFrac: 0.1}, rate: 12000, exps: desExps, desRuns: 1},
}

const (
	setupRepeats = 3
	roundLen     = 2 * time.Second // one closed plus one open segment
	warmOps      = 20000           // closed-loop ops that end each set-up
	binDir       = ".bench_build/bin"
	outDir       = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects a run's metrics, counts and the first error that makes
// it incorrect.
type run struct {
	wl        workloadDef
	seed      int64
	seconds   time.Duration
	metrics   map[string]metric
	attempted int64
	failed    int64
	errs      []error
	stamp     map[string]any
}

func (r *run) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Errorf("%s: no value measured", name))
		return
	}
	r.metrics[name] = metric{v, unit}
}

func (r *run) fail(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

func main() {
	var (
		wlName  = flag.String("workload", "kv-zipf", "workload: kv-zipf, kv-churn or des-repro")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 16, "measured seconds of KV traffic")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *wlName {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wlName, *seconds, *traced)
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join(binDir, "magecache")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run through perfbench/run.sh from the checkout root)\n", err)
		os.Exit(2)
	}
	r := &run{wl: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		metrics: make(map[string]metric), stamp: make(map[string]any)}
	r.stampBox()
	steal0, total0, serr := stealSample()
	if *traced == 1 {
		r.traced()
	} else {
		r.untraced()
	}
	// CPU time the hypervisor gave to other guests during the run: a
	// high value marks a run the machine itself slowed down.
	if steal1, total1, err := stealSample(); serr == nil && err == nil {
		r.stamp["steal_pct"] = stealPct(steal0, total0, steal1, total1)
	}
	r.report()
}

func (r *run) stampBox() {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // the stamp records "" if unreadable
	r.stamp["nproc"] = runtime.NumCPU()
	r.stamp["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.stamp["go"] = runtime.Version()
	r.stamp["kernel"] = strings.TrimSpace(string(kernel))
	r.stamp["workload"] = r.wl.name
	r.stamp["seed"] = r.seed
	r.stamp["offered_ops_s"] = r.wl.rate
	r.stamp["kv_conns"] = kvConns
	r.stamp["des_exps"] = r.wl.exps
}

// stampStack records the live topology: the cluster shape as a client
// of the same nodes sees it, and the transport a default client
// negotiates with each node.
func (r *run) stampStack(st *stack) {
	cl, err := memcluster.New(clusterShape(st.nodes), memcluster.Options{})
	if err != nil {
		r.fail(fmt.Errorf("stamp cluster: %w", err))
		return
	}
	cs := cl.Stats()
	_ = cl.Close() // a read-only client; nothing to flush
	shape := fmt.Sprintf("%d shards x %d replicas", cs.Shards, cs.Replicas/max(cs.Shards, 1))
	var reps [][]string
	for _, sh := range cs.PerShard {
		var a []string
		for _, rp := range sh.Replicas {
			a = append(a, rp.Addr)
		}
		reps = append(reps, a)
	}
	r.stamp["cluster"] = shape
	r.stamp["cluster_replicas"] = reps
	kinds := make(map[string]string)
	for _, n := range st.nodes {
		c, err := memnode.Dial(n)
		if err != nil {
			r.fail(fmt.Errorf("stamp transport: %w", err))
			return
		}
		if _, err := c.Stat(); err != nil {
			r.fail(fmt.Errorf("stamp transport: %w", err))
		}
		kinds[n] = c.TransportKind()
		_ = c.Close() // read-only probe
	}
	r.stamp["node_transport_auto"] = kinds
	r.stamp["heap"] = fmt.Sprintf("%d keys, %d pages over %d frames (%d:1)", stackKeys,
		heapPagesFor(stackKeys), framesFor(heapPagesFor(stackKeys), stackRatio), stackRatio)
}

// setUp launches a stack, prefills every key and warms it up. It
// returns the stack, its load generator and the set-up time.
func (r *run) setUp(ln *lane, parent int64) (*stack, *kvLoad, float64, error) {
	sp := ln.begin("stack.setup", parent)
	defer ln.end(sp)
	t := time.Now()
	st, err := launchStack(binDir)
	if err != nil {
		return nil, nil, 0, err
	}
	load, err := newKVLoad(st.cacheAddr, r.wl.mix, stackKeys, r.seed)
	if err == nil {
		err = load.prefill()
		if err == nil {
			var warm closedResult
			warm, err = load.closedLoop(time.Minute, warmOps, nil, 0)
			load.warmRate = warm.rate()
		}
	}
	took := time.Since(t).Seconds()
	if err == nil {
		err = st.alive()
	}
	if load != nil {
		r.count(load)
	}
	if err != nil {
		if load != nil {
			load.close()
		}
		return nil, nil, 0, errors.Join(err, st.stop())
	}
	return st, load, took, nil
}

// count folds a load's op counts into the run and resets them.
func (r *run) count(l *kvLoad) {
	r.attempted += l.counts.attempted.Load()
	r.failed += l.counts.failed.Load()
	if l.counts.firstErr != nil {
		r.fail(l.counts.firstErr)
	}
	l.counts = kvCounts{}
}

// untraced measures the end-to-end metrics. The KV rounds are spread
// over setupRepeats fresh stacks, so one stack's luck (thread
// placement, timing of its first evictions) cannot set the result.
// Each round is a closed-loop segment then an open-loop one. On a
// shared VM the hypervisor steals CPU in bursts, and a round that lost
// CPU measures the neighbours, not the program: the metrics come from
// the calm rounds, those not disturbed by steal (server_rss_mb: median
// over stacks).
func (r *run) untraced() {
	n := max(int(r.seconds/roundLen), setupRepeats)
	seg := r.seconds / time.Duration(2*n)
	var setups, rss []float64
	var rounds []round
	for i := 0; i < setupRepeats; i++ {
		st, load, took, err := r.setUp(nil, 0)
		if err != nil {
			r.fail(err)
			r.attempted++
			r.failed++
			return
		}
		setups = append(setups, took)
		for j := i; j < n; j += setupRepeats {
			rd := round{index: j}
			s0, t0, err := stealSample()
			r.fail(err)
			closed, err := load.closedLoop(seg, 0, nil, 0)
			r.fail(err)
			open, err := load.openLoop(seg, r.wl.rate, nil, 0)
			r.fail(err)
			s1, t1, err := stealSample()
			r.fail(err)
			rd.stealPct = stealPct(s0, t0, s1, t1)
			rd.opsS = closed.rate()
			rd.getLat, rd.setLat = open.get, open.set
			rounds = append(rounds, rd)
		}
		mb, err := peakRSSMiB(st.cache.pid())
		r.fail(err)
		rss = append(rss, mb)
		r.fail(st.alive())
		if i == setupRepeats-1 {
			r.stampStack(st)
		}
		r.count(load)
		load.close()
		r.fail(st.stop())
	}
	kept := calm(rounds)
	var rates []float64
	var gets, sets latencies
	for _, rd := range kept {
		rates = append(rates, rd.opsS)
		gets, sets = append(gets, rd.getLat...), append(sets, rd.setLat...)
	}
	r.put("setup_s", median(setups), "s")
	r.put("ops_s", median(rates), "1/s")
	r.putLat("get_p50_us", gets, 50)
	r.putLat("set_p50_us", sets, 50)
	// The tails are stamped, not reported: they come from a few
	// multi-millisecond stalls per run (write-back bursts, GC, CPU
	// steal), and on a 2-core VM they moved by 2x between runs of the
	// same code. The traced run reports them as per-layer figures.
	for name, l := range map[string]latencies{"get": gets, "set": sets} {
		if p, ok := highestTail(len(l)); ok {
			v, err := l.pctUs(p)
			r.fail(err)
			r.stamp[name+"_tail"] = map[string]any{"pct": p, "us": v, "samples": len(l)}
		}
	}
	r.put("server_rss_mb", median(rss), "MB")
	r.stamp["rounds"] = rounds
	r.stamp["rounds_kept"] = len(kept)

	var walls, rsss []float64
	for i := 0; i < r.wl.desRuns; i++ {
		des, err := runMagesim(binDir, r.wl.exps)
		r.attempted += int64(len(r.wl.exps))
		if err != nil {
			r.failed++
			r.fail(err)
			continue
		}
		walls = append(walls, des.wall.Seconds())
		rsss = append(rsss, des.rssMiB)
	}
	r.put("des_wall_s", median(walls), "s")
	r.put("des_rss_mb", median(rsss), "MB")
}

func (r *run) putLat(name string, l latencies, p float64) {
	v, err := l.pctUs(p)
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	r.put(name, v, "us")
}

// putSpanLat reports a percentile of the named spans' durations.
func (r *run) putSpanLat(tr *tracer, metricName, spanName string, p float64) float64 {
	l := tr.durations(spanName)
	v, err := l.pctUs(p)
	if err != nil {
		r.fail(fmt.Errorf("%s from %q spans: %w", metricName, spanName, err))
		return 0
	}
	r.put(metricName, v, "us")
	return v
}

func (r *run) traced() {
	tr := newTracer()
	ln := tr.lane(0)
	root := ln.begin("run", 0)
	defer func() {
		ln.end(root)
		ln.flush()
		r.writeTrace(tr)
	}()

	st, load, _, err := r.setUp(ln, root.id)
	if err != nil {
		r.fail(err)
		r.attempted++
		r.failed++
		return
	}
	// KV traffic with a span per request; /proc prices each process.
	phase := min(r.seconds/2, 3*time.Second)
	kvSpan := ln.begin("kv", root.id)
	cpu0 := r.cpus(st)
	_, err = load.closedLoop(phase, 0, tr, kvSpan.id)
	r.fail(err)
	open, err := load.openLoop(phase, r.wl.rate, tr, kvSpan.id)
	r.fail(err)
	cpu1 := r.cpus(st)
	ln.end(kvSpan)
	ops := float64(load.counts.attempted.Load())
	r.put("magecache.cpu_us_per_op", (cpu1[0]-cpu0[0])/ops*1e6, "us")
	r.put("memnode.cpu_us_per_op", (cpu1[1]-cpu0[1])/ops*1e6, "us")
	r.put("loadgen.cpu_us_per_op", (cpu1[2]-cpu0[2])/ops*1e6, "us")
	if gets := load.counts.gets.Load(); gets > 0 {
		r.put("magecache.get_miss_pct", float64(load.counts.misses.Load())/float64(gets)*100, "%")
	}
	r.put("fail_pct", float64(load.counts.failed.Load())/ops*100, "%")
	r.putLat("loadgen.late_p99_us", open.late, 99)
	r.putLat("get_p99_us", open.get, 99)
	r.putLat("set_p99_us", open.set, 99)
	r.stampStack(st)
	r.count(load)
	load.close()

	// The ladder, against the same memnode process.
	lad := ln.begin("ladder", root.id)
	r.put("ladder.memmove_ns", memmoveNs(ln, lad.id), "ns")
	shm, err := nodeRung(tr, lad.id, st.nodes[0], memnode.TransportShm, "memnode.shm", r.seed)
	r.fail(err)
	tcp, err := nodeRung(tr, lad.id, st.nodes[1], memnode.TransportTCP, "memnode.tcp", r.seed)
	r.fail(err)
	var retries, fallbacks uint64
	kinds := make(map[string]string)
	for name, c := range map[string]*memnode.Client{"shm": shm, "tcp": tcp} {
		if c == nil {
			continue
		}
		m := c.Metrics()
		retries += m.Retries
		fallbacks += m.ShmFallbacks
		kinds[name] = c.TransportKind()
		_ = c.Close() // a measurement client; nothing left to flush
	}
	r.stamp["ladder_transports"] = kinds
	r.put("memnode.retries", float64(retries), "count")
	r.put("memnode.shm_fallbacks", float64(fallbacks), "count")

	cl, err := memcluster.New(clusterShape(st.nodes), memcluster.Options{})
	if err != nil {
		r.fail(err)
	} else {
		r.fail(clusterRung(tr, lad.id, cl, r.seed))
		up := ln.begin("upager.replay", lad.id)
		rep, err := pagerReplay(tr, up.id, cl, r.wl.mix, r.seed)
		ln.end(up)
		r.fail(err)
		r.putReplay(rep)
		cs := cl.Stats()
		r.put("memcluster.failovers", float64(cs.Failovers), "count")
		r.put("memcluster.degraded_writes", float64(cs.DegradedWrites), "count")
		r.fail(cl.Close())
	}
	ln.end(lad)
	r.fail(st.alive())
	r.fail(st.stop())

	shmRead := r.putSpanLat(tr, "memnode.shm_read_p50_us", "memnode.shm.read", 50)
	r.putSpanLat(tr, "memnode.shm_read_p99_us", "memnode.shm.read", 99)
	r.putSpanLat(tr, "memnode.tcp_read_p50_us", "memnode.tcp.read", 50)
	r.putSpanLat(tr, "memnode.tcp_read_p99_us", "memnode.tcp.read", 99)
	r.putSpanLat(tr, "memnode.shm_writev_p50_us", "memnode.shm.writev", 50)
	clRead := r.putSpanLat(tr, "memcluster.read_p50_us", "memcluster.read", 50)
	r.putSpanLat(tr, "memcluster.read_p99_us", "memcluster.read", 99)
	r.putSpanLat(tr, "memcluster.write_p50_us", "memcluster.write", 50)
	r.putSpanLat(tr, "memcluster.write_p99_us", "memcluster.write", 99)
	r.putSpanLat(tr, "memcluster.writev_p50_us", "memcluster.writev", 50)
	pin := r.putSpanLat(tr, "upager.pin_p50_us", "upager.pin", 50)
	r.putSpanLat(tr, "upager.pin_p99_us", "upager.pin", 99)
	get, err := tr.durations("magecache.get").pctUs(50)
	r.fail(err)
	r.put("ladder.cluster_over_node_us", clRead-shmRead, "us")
	r.put("ladder.pager_over_cluster_us", r.metrics["upager.fault_p50_us"].Value-clRead, "us")
	r.put("ladder.cache_over_pager_us", get-pin, "us")

	// The DES layers, in this process, after the stack is gone.
	ds := ln.begin("des", root.id)
	des, err := desLayers(ln, ds.id)
	ln.end(ds)
	r.attempted += int64(len(desExps) + 2)
	if err != nil {
		r.failed++
		r.fail(err)
	}
	for _, e := range desExps {
		r.put("experiments."+e+"_s", des.expSeconds[e], "s")
	}
	if pool := des.expSeconds["fig14"]; pool > 0 {
		r.put("parexp.speedup", des.fig14SeqS/pool, "x")
	}
	r.put("sim.ns_per_event", des.nsPerEvent, "ns")
	r.put("sim.ns_per_event_4shard", des.nsPerEvent4, "ns")
	r.put("core.ns_per_fault", des.coreNsPerFault, "ns")
	r.put("core.faults", float64(des.coreFaults), "count")
	r.put("core.evicted_pages", float64(des.coreEvicted), "count")
}

func (r *run) putReplay(rep replayResult) {
	s := rep.stats
	ops := float64(rep.ops)
	if pins := s.Hits + s.Faults; pins > 0 {
		r.put("upager.hit_pct", float64(s.Hits)/float64(pins)*100, "%")
	}
	r.put("upager.faults_per_op", float64(s.Faults)/ops, "1/op")
	r.put("upager.evictions_per_op", float64(s.Evictions)/ops, "1/op")
	if s.Evictions > 0 {
		r.put("upager.clean_drop_pct", float64(s.CleanDrops)/float64(s.Evictions)*100, "%")
	}
	if s.WritebackBatches > 0 {
		r.put("upager.wb_pages_per_batch", float64(s.WritebackPages)/float64(s.WritebackBatches), "pages")
	}
	r.put("upager.coalesced_per_op", float64(s.Coalesced)/ops, "1/op")
	r.put("upager.wb_errors", float64(s.WritebackErrors), "count")
	if rep.faultSamples < 1000 {
		r.fail(fmt.Errorf("upager fault latency: %d samples, p99 needs 1000", rep.faultSamples))
	}
	r.put("upager.fault_p50_us", rep.faultP50Us, "us")
	r.put("upager.fault_p99_us", rep.faultP99Us, "us")
	r.stamp["replay"] = fmt.Sprintf("%d ops, %d pages over %d frames", rep.ops, rep.heapPages, rep.frames)
}

// cpus reads the CPU seconds of magecache, memnode and this process.
func (r *run) cpus(st *stack) [3]float64 {
	var out [3]float64
	for i, pid := range []int{st.cache.pid(), st.memnode.pid(), os.Getpid()} {
		v, err := cpuSeconds(pid)
		r.fail(err)
		out[i] = v
	}
	return out
}

func (r *run) writeTrace(tr *tracer) {
	tr.phaseReport(os.Stdout)
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", r.wl.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		r.fail(err)
		return
	}
	err = tr.writeChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	r.fail(err)
	r.stamp["trace_file"] = path
	r.stamp["trace_spans"] = len(tr.spans)
}

func (r *run) report() {
	st, _ := json.Marshal(r.stamp) // plain values; cannot fail
	fmt.Printf("# stamp %s\n", st)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, err := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	res := result{Correct: len(r.errs) == 0 && r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: r.metrics}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
