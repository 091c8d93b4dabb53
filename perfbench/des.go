package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"mage"
	"mage/internal/experiments"
	"mage/internal/sim"
)

// desExps are the experiments des-repro regenerates.
var desExps = []string{"claims", "fig7", "fig14", "extevict", "extrack"}

// desDigests pins the SHA-256 of each experiment's rendered tables at
// quick scale (magesim's output without its "(<exp> took ...)" lines).
// Any change to a simulated number changes a digest and fails the run,
// so a simulator speed-up cannot count as a gain unless it leaves every
// table byte-identical.
var desDigests = map[string]string{
	"claims":   "e5cd2157bb14007fdaf00e90f297d063c84cfada5ea38d9c37b16f0c8615430a",
	"fig7":     "4125e53b6e396f48680b6f03ce114e6d56fae637ac769c721f2bcd7e0a927090",
	"fig14":    "348009f258165ea5d2c420e142129c4c0aa2232f8c6cf2ad1975755707de9746",
	"extevict": "477d9021003b78ab4d16c8c23af4a0fbb0248804ebda1c2b86a0bc54e7b8191b",
	"extrack":  "b9cb39cd774474e476a49d236302bf5b2b9b59ca706f4870be1aa766bfa7fa7f",
}

func checkDigest(exp, got string) error {
	want, ok := desDigests[exp]
	if !ok {
		return fmt.Errorf("no pinned digest for %s", exp)
	}
	if got != want {
		return fmt.Errorf("%s: table digest %s, pinned %s", exp, got, want)
	}
	return nil
}

var tookRE = regexp.MustCompile(`^\((\S+) took [0-9.]+s\)$`)

// splitMagesim cuts magesim's output into each experiment's rendered
// tables, dropping the "(<exp> took ...)" line and the blank line after
// it, and returns the digest of each.
func splitMagesim(out []byte) (map[string]string, error) {
	digests := make(map[string]string)
	var cur bytes.Buffer
	skipBlank := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if skipBlank && line == "" {
			skipBlank = false
			continue
		}
		skipBlank = false
		if m := tookRE.FindStringSubmatch(line); m != nil {
			sum := sha256.Sum256(cur.Bytes())
			digests[m[1]] = hex.EncodeToString(sum[:])
			cur.Reset()
			skipBlank = true
			continue
		}
		cur.WriteString(line)
		cur.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if strings.TrimSpace(cur.String()) != "" {
		return nil, fmt.Errorf("magesim output ends with %d bytes outside any experiment", cur.Len())
	}
	return digests, nil
}

// tablesDigest is the digest of tables rendered as magesim prints them.
func tablesDigest(tables []*experiments.Table) string {
	h := sha256.New()
	for _, t := range tables {
		t.Print(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// desRun is one magesim process regenerating a list of experiments.
type desRun struct {
	wall   time.Duration
	rssMiB float64
}

// runMagesim runs magesim with its default worker pool and checks every
// experiment's tables against the pinned digests.
func runMagesim(bin string, exps []string) (desRun, error) {
	cmd := exec.Command(filepath.Join(bin, "magesim"), "-exp", strings.Join(exps, ","))
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := desRun{wall: time.Since(t0)}
	if err != nil {
		return r, fmt.Errorf("magesim: %v\n%s", err, stderr.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	digests, err := splitMagesim(out.Bytes())
	if err != nil {
		return r, err
	}
	for _, e := range exps {
		got, ok := digests[e]
		if !ok {
			return r, fmt.Errorf("magesim printed no tables for %s", e)
		}
		if err := checkDigest(e, got); err != nil {
			return r, err
		}
	}
	return r, nil
}

// desLayers times the DES layers in-process: each experiment through
// the experiments package (pool and, for fig14, sequential), the sim
// engine on a synthetic process set, and the core fault model through
// the root mage API.
type desLayerResult struct {
	expSeconds     map[string]float64
	fig14SeqS      float64
	nsPerEvent     float64
	nsPerEvent4    float64
	coreNsPerFault float64
	coreFaults     uint64
	coreEvicted    uint64
}

func runExperiment(ln *lane, parent int64, name string, workers int) (float64, error) {
	r, err := experiments.Lookup(name)
	if err != nil {
		return 0, err
	}
	sc := experiments.Quick()
	sc.Workers = workers
	spanName := "experiments." + name
	if workers == 1 {
		spanName += ".sequential"
	}
	sp := ln.begin(spanName, parent)
	t0 := time.Now()
	tables := r(sc)
	s := time.Since(t0).Seconds()
	ln.end(sp)
	return s, checkDigest(name, tablesDigest(tables))
}

// simEvents runs a fixed synthetic process set and returns ns per
// dispatched event: procs processes, each sleeping steps times.
func simEvents(ln *lane, parent int64, shards int) float64 {
	const procs, steps = 32, 10000
	eng := sim.NewEngineShards(shards)
	for i := 0; i < procs; i++ {
		i := i
		eng.SpawnIn(i, fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			for j := 0; j < steps; j++ {
				p.Sleep(sim.Time(1 + (i*7+j)%13))
			}
		})
	}
	sp := ln.begin(fmt.Sprintf("sim.run_%dshard", shards), parent)
	t0 := time.Now()
	eng.Run()
	d := time.Since(t0)
	ln.end(sp)
	return float64(d.Nanoseconds()) / (procs * steps)
}

// The core reference run: Mage^LIB on the default Zipf stream with a
// quarter of the working set local. Its simulated counts are pinned.
const (
	coreThreads     = 8
	corePages       = 1 << 14
	coreLocal       = 1 << 12
	coreWantFaults  = 5295
	coreWantEvicted = 1405
)

func coreRun(ln *lane, parent int64) (nsPerFault float64, faults, evicted uint64, err error) {
	sys := mage.MustNewSystem(mage.MageLib(coreThreads, corePages, coreLocal))
	zp := mage.DefaultZipfParams()
	zp.Pages = corePages
	w := mage.NewZipf(zp)
	sp := ln.begin("core.system_run", parent)
	t0 := time.Now()
	res := sys.Run(w.Streams(coreThreads, 1))
	d := time.Since(t0)
	ln.end(sp)
	faults, evicted = res.Metrics.MajorFaults, res.Metrics.EvictedPages
	if faults != coreWantFaults || evicted != coreWantEvicted {
		err = fmt.Errorf("core reference run: %d faults, %d evicted pages; pinned %d and %d",
			faults, evicted, coreWantFaults, coreWantEvicted)
	}
	if faults > 0 {
		nsPerFault = float64(d.Nanoseconds()) / float64(faults)
	}
	return nsPerFault, faults, evicted, err
}

func desLayers(ln *lane, parent int64) (desLayerResult, error) {
	r := desLayerResult{expSeconds: make(map[string]float64)}
	for _, e := range desExps {
		s, err := runExperiment(ln, parent, e, 0)
		if err != nil {
			return r, err
		}
		r.expSeconds[e] = s
	}
	s, err := runExperiment(ln, parent, "fig14", 1)
	if err != nil {
		return r, err
	}
	r.fig14SeqS = s
	r.nsPerEvent = simEvents(ln, parent, 1)
	r.nsPerEvent4 = simEvents(ln, parent, 4)
	r.coreNsPerFault, r.coreFaults, r.coreEvicted, err = coreRun(ln, parent)
	return r, err
}
