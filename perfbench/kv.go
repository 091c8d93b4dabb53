package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mage/internal/workload"
)

// The KV load generator drives magecache through its text protocol on
// kvConns connections. Keys are split between connections by parity,
// so each key's requests travel one connection in order and the value
// model knows the exact version every GET must return.

const kvConns = 2

// kvConn is one protocol connection.
type kvConn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	val []byte // reply value buffer
}

func dialKV(addr string) (*kvConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &kvConn{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}, nil
}

func (kc *kvConn) close() error { return kc.c.Close() }

// request is one GET or SET and what its reply must be.
type request struct {
	key int64
	set bool
	ver uint32 // version written (SET) or expected (GET)
	due int64  // open loop: ns since the phase started
}

func (kc *kvConn) send(rq request, keys []string, scratch []byte) []byte {
	if !rq.set {
		kc.w.WriteString("get ")
		kc.w.WriteString(keys[rq.key])
		kc.w.WriteByte('\n')
		return scratch
	}
	scratch = appendVal(scratch[:0], rq.key, rq.ver)
	kc.w.WriteString("set ")
	kc.w.WriteString(keys[rq.key])
	kc.w.WriteByte(' ')
	kc.w.WriteString(strconv.Itoa(len(scratch)))
	kc.w.WriteByte('\n')
	kc.w.Write(scratch)
	kc.w.WriteByte('\n')
	return scratch
}

// errMiss is a GET that missed. Every key is stored by the prefill,
// the benchmark never deletes one, and magecache's heap is sized so it
// never steals a live cell, so a miss is a lost key: a failed request.
// The reply itself is well formed, so the connection stays usable.
var errMiss = errors.New("get missed a stored key")

// recv reads rq's reply and checks it.
func (kc *kvConn) recv(rq request) error {
	line, err := kc.r.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("read reply: %w", err)
	}
	switch {
	case rq.set:
		if !bytes.Equal(line, []byte("STORED\n")) {
			return fmt.Errorf("wrong reply to set key %d: %q", rq.key, line)
		}
		return nil
	case bytes.Equal(line, []byte("MISS\n")):
		return fmt.Errorf("key %d: %w", rq.key, errMiss)
	case bytes.HasPrefix(line, []byte("VALUE ")):
		n, perr := strconv.Atoi(string(bytes.TrimSpace(line[6:])))
		if perr != nil || n < 0 || n > pageBytes {
			return fmt.Errorf("wrong reply to get key %d: %q", rq.key, line)
		}
		if cap(kc.val) < n+1 {
			kc.val = make([]byte, n+1)
		}
		v := kc.val[:n+1]
		if _, err := io.ReadFull(kc.r, v); err != nil {
			return fmt.Errorf("read value: %w", err)
		}
		if v[n] != '\n' {
			return fmt.Errorf("wrong reply to get key %d: value not newline-terminated", rq.key)
		}
		if err := checkVal(rq.key, rq.ver, v[:n]); err != nil {
			return fmt.Errorf("wrong value: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("wrong reply to get key %d: %q", rq.key, line)
	}
}

// mix is a KV workload's traffic: its key distribution and SET share.
type mix struct {
	zipf    bool
	setFrac float64
}

// keyStream draws one connection's keys: the mix's distribution,
// restricted to keys of the connection's parity.
type keyStream struct {
	rng    *rand.Rand
	mix    mix
	keys   int64
	parity int64
	gen    workload.KeyGen
}

func newKeyStream(m mix, keys int64, seed int64, conn int) *keyStream {
	return &keyStream{rng: rand.New(rand.NewSource(seed*7919 + int64(conn))), mix: m, keys: keys, parity: int64(conn)}
}

// phaseDraws sizes each leg of the standard phase schedule so that one
// pass spans a segment in which the connection sends n requests, as
// magecache's own load generator sizes its legs to its run. A
// connection keeps about one draw in kvConns (the others have the wrong
// parity).
func phaseDraws(n int64) int64 { return n*kvConns/3 + 1 }

// restart begins the key stream of a segment in which the connection
// is expected to send n requests. The zipf mix walks
// workload.StandardPhases once: steady Zipf(0.99), a hot-key storm, then
// a flash crowd, which holds if the segment runs longer than expected.
// Building the phases happens here, before the segment is timed.
func (ks *keyStream) restart(n int64) {
	if ks.mix.zipf {
		ks.gen = workload.NewPhasedKeys(workload.StandardPhases(ks.keys, 0.99, phaseDraws(n))...)
	} else {
		ks.gen = workload.NewUniform(ks.keys)
	}
}

func (ks *keyStream) next() request {
	for {
		if k := ks.gen.Next(ks.rng); k%kvConns == ks.parity {
			return request{key: k, set: ks.rng.Float64() < ks.mix.setFrac}
		}
	}
}

// kvCounts accumulates one phase's outcome across connections.
type kvCounts struct {
	attempted, failed, misses, gets atomic.Int64
	mu                              sync.Mutex
	firstErr                        error
}

// outcome counts a request whose reply recv checked with result err.
// It returns err when the connection cannot go on; a miss is counted
// as failed but leaves the connection in step.
func (c *kvCounts) outcome(rq request, err error) error {
	c.attempted.Add(1)
	if !rq.set {
		c.gets.Add(1)
	}
	if err == nil {
		return nil
	}
	c.fail(err)
	if errors.Is(err, errMiss) {
		c.misses.Add(1)
		return nil
	}
	return err
}

func (c *kvCounts) fail(err error) {
	c.failed.Add(1)
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
}

// kvLoad is the generator's state across phases: connections, the
// per-key versions and the key streams.
type kvLoad struct {
	conns   []*kvConn
	keys    []string
	ver     []uint32 // current version per key; key k is only touched by conn k%kvConns
	streams []*keyStream
	counts  kvCounts
	// warmRate is the closed-loop rate (ops/s) of the warm-up, which
	// sizes the key streams' phases in later closed-loop segments.
	warmRate float64
}

func newKVLoad(addr string, m mix, keys int64, seed int64) (*kvLoad, error) {
	l := &kvLoad{keys: make([]string, keys), ver: make([]uint32, keys)}
	for k := range l.keys {
		l.keys[k] = keyName(int64(k))
	}
	for i := 0; i < kvConns; i++ {
		kc, err := dialKV(addr)
		if err != nil {
			l.close()
			return nil, err
		}
		l.conns = append(l.conns, kc)
		l.streams = append(l.streams, newKeyStream(m, keys, seed, i))
	}
	return l, nil
}

func (l *kvLoad) close() {
	for _, kc := range l.conns {
		_ = kc.close() // the server side is going away too
	}
}

// stamp fixes a request's version: a SET writes the next version, a
// GET expects the current one.
func (l *kvLoad) stamp(rq request) request {
	if rq.set {
		l.ver[rq.key]++
	}
	rq.ver = l.ver[rq.key]
	return rq
}

// restart begins every key stream for a segment of n requests across
// all connections.
func (l *kvLoad) restart(n float64) {
	for _, ks := range l.streams {
		ks.restart(int64(n) / kvConns)
	}
}

// prefill stores version 0 of every key, pipelining batches of SETs.
func (l *kvLoad) prefill() error {
	const batch = 128
	return l.each(func(i int, kc *kvConn) error {
		var scratch []byte
		var inflight []request
		for k := int64(i); k < int64(len(l.keys)); k += kvConns {
			rq := request{key: k, set: true}
			scratch = kc.send(rq, l.keys, scratch)
			inflight = append(inflight, rq)
			if len(inflight) == batch || k+kvConns >= int64(len(l.keys)) {
				if err := kc.w.Flush(); err != nil {
					return err
				}
				for _, rq := range inflight {
					if err := l.counts.outcome(rq, kc.recv(rq)); err != nil {
						return err
					}
				}
				inflight = inflight[:0]
			}
		}
		return nil
	})
}

// each runs fn once per connection concurrently and waits.
func (l *kvLoad) each(fn func(i int, kc *kvConn) error) error {
	errs := make([]error, len(l.conns))
	var wg sync.WaitGroup
	for i, kc := range l.conns {
		wg.Add(1)
		go func(i int, kc *kvConn) {
			defer wg.Done()
			errs[i] = fn(i, kc)
		}(i, kc)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedResult is a closed-loop phase's throughput.
type closedResult struct {
	ops     int64
	elapsed time.Duration
}

func (c closedResult) rate() float64 { return float64(c.ops) / c.elapsed.Seconds() }

// closedLoop runs each connection request-reply until ops requests are
// done (ops > 0) or d has passed; a timed segment expects warmRate.
// Each request gets a span when tr is on.
func (l *kvLoad) closedLoop(d time.Duration, ops int64, tr *tracer, parent int64) (closedResult, error) {
	if ops > 0 {
		l.restart(float64(ops))
	} else {
		l.restart(l.warmRate * d.Seconds())
	}
	// The connections spend their time waiting on the network; one P
	// serves both and leaves the CPUs to the processes under test.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	var done atomic.Int64
	err := l.each(func(i int, kc *kvConn) error {
		ln := tr.lane(10 + i)
		defer ln.flush()
		_ = kc.c.SetDeadline(start.Add(d + 30*time.Second)) // bounds a hung server
		var scratch []byte
		for {
			el := time.Since(start)
			if (ops > 0 && done.Load() >= ops) || (ops <= 0 && el >= d) {
				return nil
			}
			rq := l.stamp(l.streams[i].next())
			name := "magecache.get"
			if rq.set {
				name = "magecache.set"
			}
			sp := ln.begin(name, parent)
			scratch = kc.send(rq, l.keys, scratch)
			if err := kc.w.Flush(); err != nil {
				l.counts.attempted.Add(1)
				l.counts.fail(err)
				return err
			}
			err := kc.recv(rq)
			ln.end(sp)
			if fatal := l.counts.outcome(rq, err); fatal != nil {
				return fatal
			}
			done.Add(1)
		}
	})
	return closedResult{ops: done.Load(), elapsed: time.Since(start)}, err
}

// openResult is an open-loop phase's latencies, timed from when each
// request was due, and how late the generator sent them.
type openResult struct {
	get, set latencies
	late     latencies
}

// schedule is the open loop's fixed-rate due times for one connection.
type schedule struct {
	interval time.Duration
	end      time.Duration
}

// due returns the i-th request's due time and whether it falls inside
// the phase.
func (s schedule) due(i int64) (time.Duration, bool) {
	t := time.Duration(i) * s.interval
	return t, t < s.end
}

// lateness is how far behind schedule a request sent at sent was.
func lateness(due, sent time.Duration) time.Duration {
	if sent < due {
		return 0
	}
	return sent - due
}

// openLoop offers rate requests/s, split evenly over the connections,
// for d. Senders follow the schedule whatever the replies do; a
// receiver per connection times each reply from its due time.
func (l *kvLoad) openLoop(d time.Duration, rate float64, tr *tracer, parent int64) (openResult, error) {
	l.restart(rate * d.Seconds())
	sched := schedule{interval: time.Duration(float64(kvConns) / rate * 1e9), end: d}
	// A sender asleep in nanosleep keeps its P until sysmon retakes it,
	// which can take milliseconds; spare Ps keep the receivers running.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + kvConns))
	start := time.Now()
	results := make([]openResult, len(l.conns))
	err := l.each(func(i int, kc *kvConn) error {
		_ = kc.c.SetDeadline(start.Add(d + 30*time.Second)) // bounds a hung server
		// Sized so a sender never waits on its receiver unless the
		// server has stalled for several seconds at the offered rate.
		pending := make(chan request, 1<<16)
		var sendErr error
		res := &results[i]
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(pending)
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			preciseSleeps()
			var scratch []byte
			for n := int64(0); ; n++ {
				due, ok := sched.due(n)
				if !ok {
					return
				}
				sleepUntil(start.Add(due))
				rq := l.stamp(l.streams[i].next())
				rq.due = int64(due)
				res.late = append(res.late, int64(lateness(due, time.Since(start))))
				scratch = kc.send(rq, l.keys, scratch)
				if err := kc.w.Flush(); err != nil {
					sendErr = err
					return
				}
				pending <- rq
			}
		}()
		ln := tr.lane(20 + i)
		var off int64 // the phase start on the tracer's clock
		if tr != nil {
			off = start.Sub(tr.t0).Nanoseconds()
		}
		var recvErr error
		for rq := range pending {
			if recvErr != nil {
				continue // drain so the sender can finish
			}
			name := "magecache.get"
			if rq.set {
				name = "magecache.set"
			}
			err := kc.recv(rq)
			now := time.Since(start)
			if fatal := l.counts.outcome(rq, err); fatal != nil {
				recvErr = fatal
				continue
			}
			if err != nil {
				continue // a miss: counted as failed, not timed
			}
			if ln != nil {
				// The span runs from when the request was due.
				ln.spans = append(ln.spans, span{name: name, id: tr.ids.Add(1), parent: parent, tid: ln.tid,
					start: off + rq.due, end: off + int64(now)})
			}
			lat := int64(now) - rq.due
			if rq.set {
				res.set = append(res.set, lat)
			} else {
				res.get = append(res.get, lat)
			}
		}
		wg.Wait()
		ln.flush()
		if sendErr != nil {
			l.counts.attempted.Add(1)
			l.counts.fail(sendErr)
		}
		return errors.Join(sendErr, recvErr)
	})
	var out openResult
	for _, r := range results {
		out.get = append(out.get, r.get...)
		out.set = append(out.set, r.set...)
		out.late = append(out.late, r.late...)
	}
	return out, err
}

// preciseSleeps sets the calling thread's timer slack to 1ns, so a
// nanosleep wakes within microseconds of its target instead of the
// default 50us slack. The caller has locked its OS thread.
func preciseSleeps() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // a failure only costs precision
}

// sleepUntil blocks the calling thread until t. It uses nanosleep
// directly: the Go timer rounds idle sleeps up to a millisecond, which
// would bunch an open loop's requests into bursts.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
