package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mage/internal/workload"
)

func TestValueModel(t *testing.T) {
	for _, k := range []int64{0, 1, 4095, 65535} {
		for _, ver := range []uint32{0, 1, 77} {
			v := appendVal(nil, k, ver)
			if len(v) < 64 || len(v) > 1023 {
				t.Fatalf("key %d: length %d outside 64..1023", k, len(v))
			}
			if err := checkVal(k, ver, v); err != nil {
				t.Fatalf("key %d version %d: %v", k, ver, err)
			}
			if err := checkVal(k, ver+1, v); err == nil {
				t.Fatalf("key %d: version %d accepted as %d", k, ver, ver+1)
			}
			if err := checkVal(k+2, ver, v); err == nil {
				t.Fatalf("key %d's value accepted for key %d", k, k+2)
			}
			bad := append([]byte(nil), v...)
			bad[len(bad)-1] ^= 1
			if err := checkVal(k, ver, bad); err == nil {
				t.Fatalf("key %d: corrupt fill accepted", k)
			}
			if err := checkVal(k, ver, v[:len(v)-1]); err == nil {
				t.Fatalf("key %d: short value accepted", k)
			}
		}
	}
}

func TestHeapModelFollowsSlab(t *testing.T) {
	const keys = 4096
	h := newHeapModel(keys)
	if uint64(h.next) > heapPagesFor(keys) {
		t.Fatalf("prefill carved %d pages, heap has %d", h.next, heapPagesFor(keys))
	}
	// Find two keys of the same class.
	a := int64(0)
	b := int64(1)
	for classFor(valLen(b)) != classFor(valLen(a)) {
		b++
	}
	oldA := h.at[a]
	h.set(a)
	if h.at[a] == oldA {
		t.Fatal("set left the key in its old cell")
	}
	// magecache frees the old cell after storing; the next SET of the
	// same class takes it (LIFO free list).
	h.set(b)
	if h.at[b] != oldA {
		t.Fatalf("next set of the class took %+v, want the freed cell %+v", h.at[b], oldA)
	}
	if got := h.page(b); got != uint64(oldA.pg) {
		t.Fatalf("page(b) = %d, want %d", got, oldA.pg)
	}
}

func TestPercentileSelection(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, err := percentile(s, 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %d, %v; want 990", v, err)
	}
	if v, err := percentile(s, 50); err != nil || v != 500 {
		t.Fatalf("p50 of 1..1000 = %d, %v; want 500", v, err)
	}
	if _, err := percentile(s[:999], 99); err == nil {
		t.Fatal("p99 of 999 samples accepted with fewer than 10 beyond it")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestOpenLoopDueAccounting(t *testing.T) {
	s := schedule{interval: 250 * time.Microsecond, end: time.Millisecond}
	var dues []time.Duration
	for i := int64(0); ; i++ {
		d, ok := s.due(i)
		if !ok {
			break
		}
		dues = append(dues, d)
	}
	want := []time.Duration{0, 250 * time.Microsecond, 500 * time.Microsecond, 750 * time.Microsecond}
	if len(dues) != len(want) {
		t.Fatalf("due times %v, want %v", dues, want)
	}
	for i := range want {
		if dues[i] != want[i] {
			t.Fatalf("due times %v, want %v", dues, want)
		}
	}
	// A request sent late is late by the gap; one sent early is not.
	if got := lateness(500*time.Microsecond, 730*time.Microsecond); got != 230*time.Microsecond {
		t.Fatalf("lateness = %v, want 230µs", got)
	}
	if got := lateness(500*time.Microsecond, 400*time.Microsecond); got != 0 {
		t.Fatalf("early send lateness = %v, want 0", got)
	}
}

func TestProcParsing(t *testing.T) {
	// A command name holding spaces and a ')' must not shift the fields.
	stat := "4242 (mage cache) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 37 0 0 20 0 9 0 100 200000000 5000 18446744073709551615"
	ticks, err := parseStatCPU(stat)
	if err != nil || ticks != 287 {
		t.Fatalf("parseStatCPU = %d, %v; want 287", ticks, err)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Fatal("truncated stat accepted")
	}
	status := "Name:\tmagecache\nVmPeak:\t  900000 kB\nVmHWM:\t   43008 kB\nVmRSS:\t   40000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 43008 {
		t.Fatalf("VmHWM = %d, %v; want 43008", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Fatal("missing key accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t12 pages\n", "VmHWM"); err == nil {
		t.Fatal("wrong unit accepted")
	}
	steal, total, err := parseStealTicks("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n")
	if err != nil || steal != 35 || total != 1000 {
		t.Fatalf("parseStealTicks = %d, %d, %v; want 35, 1000", steal, total, err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{name: "phase", id: 1, start: 0, end: 100},
		{name: "a", id: 2, parent: 1, start: 10, end: 30},
		{name: "b", id: 3, parent: 1, start: 20, end: 40},  // overlaps a
		{name: "c", id: 4, parent: 1, start: 90, end: 120}, // runs past the parent
		{name: "grandchild", id: 5, parent: 2, start: 12, end: 14},
	}
	self := selfTimes(spans)
	// Children cover [10,40) and [90,100): 40 of the phase's 100.
	want := map[int64]int64{1: 60, 2: 18, 3: 20, 4: 30, 5: 2}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSplitMagesim(t *testing.T) {
	out := "Table A\nrow 1\n(claims took 2.8s)\n\nTable B\n\nrow 2\n(fig7 took 12.0s)\n\n"
	d, err := splitMagesim([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	sum := func(s string) string { h := sha256.Sum256([]byte(s)); return hex.EncodeToString(h[:]) }
	if d["claims"] != sum("Table A\nrow 1\n") || d["fig7"] != sum("Table B\n\nrow 2\n") {
		t.Fatalf("digests %v ignore the took lines wrongly", d)
	}
	if _, err := splitMagesim([]byte("Table A\n(claims took 1.0s)\n\ntrailing\n")); err == nil {
		t.Fatal("output after the last experiment accepted")
	}
}

func TestCalmDropsOnlyDisturbedRounds(t *testing.T) {
	// No steal at all: every round counts, whatever stack it ran on.
	idle := []round{{index: 0}, {index: 3}, {index: 6}, {index: 1}, {index: 4}, {index: 7}, {index: 2}, {index: 5}}
	if got := calm(idle); len(got) != len(idle) {
		t.Fatalf("kept %d of %d rounds with no steal", len(got), len(idle))
	}
	rounds := []round{
		{index: 0, stealPct: 8.3, opsS: 100},
		{index: 1, stealPct: 25, opsS: 10},
		{index: 2, stealPct: 3.5, opsS: 1},
		{index: 3, stealPct: 8.6, opsS: 50},
		{index: 4, stealPct: 5, opsS: 50},
	}
	kept := calm(rounds)
	if len(kept) != 3 || kept[0].index != 0 || kept[1].index != 2 || kept[2].index != 4 {
		t.Fatalf("kept %+v, want rounds 0, 2 and 4 in order", kept)
	}
}

func TestMissIsFailure(t *testing.T) {
	kc := &kvConn{r: bufio.NewReader(strings.NewReader("MISS\n"))}
	var c kvCounts
	rq := request{key: 7}
	err := kc.recv(rq)
	if !errors.Is(err, errMiss) {
		t.Fatalf("recv of MISS = %v, want errMiss", err)
	}
	if fatal := c.outcome(rq, err); fatal != nil {
		t.Fatalf("a miss ended the connection: %v", fatal)
	}
	if c.attempted.Load() != 1 || c.failed.Load() != 1 || c.misses.Load() != 1 {
		t.Fatalf("attempted %d failed %d misses %d, want 1 1 1", c.attempted.Load(), c.failed.Load(), c.misses.Load())
	}
	kc = &kvConn{r: bufio.NewReader(strings.NewReader("ERROR\n"))}
	if fatal := c.outcome(rq, kc.recv(rq)); fatal == nil {
		t.Fatal("an error reply left the connection going")
	}
}

func TestCheckHeap(t *testing.T) {
	pages := heapPagesFor(stackKeys)
	frames := framesFor(pages, stackRatio)
	line := func(p uint64, f int) string {
		return fmt.Sprintf("magecache: heap %d pages (68.1 MiB) over %d local frames (remote:local 8:1)\nmagecache: serving on 127.0.0.1:1\n", p, f)
	}
	if err := checkHeap(line(pages, frames), stackKeys, stackRatio); err != nil {
		t.Fatal(err)
	}
	if err := checkHeap(line(pages+1, frames), stackKeys, stackRatio); err == nil {
		t.Fatal("a different page count accepted")
	}
	if err := checkHeap(line(pages, frames-1), stackKeys, stackRatio); err == nil {
		t.Fatal("a different frame count accepted")
	}
	if err := checkHeap("magecache: serving on 127.0.0.1:1\n", stackKeys, stackRatio); err == nil {
		t.Fatal("missing heap line accepted")
	}
}

// One pass of the standard phases spans the segment a stream is
// restarted for.
func TestKeyStreamPhasesSpanSegment(t *testing.T) {
	const n = 30000
	ks := newKeyStream(mix{zipf: true}, stackKeys, 3, 1)
	for i, want := range map[int]string{n / 6: "zipf", n / 2: "hot-key-storm", n * 9 / 10: "flash-crowd"} {
		ks.restart(n)
		for j := 0; j < i; j++ {
			ks.next()
		}
		if got := ks.gen.(*workload.PhasedKeys).CurrentPhase(); got != want {
			t.Errorf("after %d of %d requests the phase is %q, want %q", i, n, got, want)
		}
	}
}
