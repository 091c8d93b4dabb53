package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mage/internal/memcluster"
	"mage/internal/memnode"
	"mage/internal/upager"
)

// The layer ladder prices one 4 KiB page read at each rung below
// magecache, with a span around every call: a memmove floor, a memnode
// client on shm and on TCP, the 2x2 memcluster, and a upager.Pager over
// that cluster replaying the workload's key stream as page accesses.

const (
	ladderPages   = 1024 // 4 MiB region per rung
	ladderWorkers = kvConns
	ladderReads   = 4000 // per worker and rung
	ladderWrites  = 1500 // per worker: replicated single-page writes
	ladderWriteVs = 300  // per worker: 32-page batches
	writeVPages   = 32
	replayOps     = 100000 // upager replay, across workers
)

// pagePattern fills b with page pg's pattern: an 8-byte stamp then a
// fill byte, so a read of the wrong page or a torn page is caught.
func pagePattern(b []byte, pg int64, gen uint32) {
	binary.LittleEndian.PutUint64(b, uint64(pg)^uint64(gen)<<40^stampMagic)
	fill := byte(fnv64(uint64(pg) ^ uint64(gen)<<40))
	for i := 8; i < len(b); i++ {
		b[i] = fill
	}
}

func checkPage(b []byte, pg int64, gen uint32) error {
	if len(b) != pageBytes {
		return fmt.Errorf("page %d: %d bytes, want %d", pg, len(b), pageBytes)
	}
	want := make([]byte, pageBytes)
	pagePattern(want, pg, gen)
	if string(b) != string(want) {
		return fmt.Errorf("page %d: content does not match generation %d", pg, gen)
	}
	return nil
}

// pageStore is what the memnode and memcluster rungs have in common.
type pageStore interface {
	Register(size int64) (uint64, error)
	Read(handle uint64, offset, length int64) ([]byte, error)
	Write(handle uint64, offset int64, data []byte) error
	WriteV(handle uint64, offsets []int64, pages [][]byte) error
}

// fillRegion writes generation gen of every page in 32-page batches.
func fillRegion(st pageStore, h uint64, gen uint32) error {
	for base := int64(0); base < ladderPages; base += writeVPages {
		offs, pgs := batch(base, gen)
		if err := st.WriteV(h, offs, pgs); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
	}
	return nil
}

func batch(base int64, gen uint32) ([]int64, [][]byte) {
	offs := make([]int64, writeVPages)
	pgs := make([][]byte, writeVPages)
	for i := range offs {
		pg := (base + int64(i)) % ladderPages
		offs[i] = pg * pageBytes
		pgs[i] = make([]byte, pageBytes)
		pagePattern(pgs[i], pg, gen)
	}
	return offs, pgs
}

// parallel runs fn on ladderWorkers goroutines, each with its own lane.
func parallel(tr *tracer, fn func(w int, ln *lane) error) error {
	errs := make([]error, ladderWorkers)
	var wg sync.WaitGroup
	for w := 0; w < ladderWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ln := tr.lane(100 + w)
			defer ln.flush()
			errs[w] = fn(w, ln)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rungReads times random 4 KiB reads of a filled region.
func rungReads(tr *tracer, parent int64, name string, st pageStore, h uint64, gen uint32, seed int64) error {
	return parallel(tr, func(w int, ln *lane) error {
		rng := rand.New(rand.NewSource(seed + int64(w)))
		for i := 0; i < ladderReads; i++ {
			pg := rng.Int63n(ladderPages)
			sp := ln.begin(name, parent)
			b, err := st.Read(h, pg*pageBytes, pageBytes)
			ln.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := checkPage(b, pg, gen); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			memnode.PutBuf(b)
		}
		return nil
	})
}

// rungWriteVs times 32-page batch writes of generation gen.
func rungWriteVs(tr *tracer, parent int64, name string, st pageStore, h uint64, gen uint32) error {
	return parallel(tr, func(w int, ln *lane) error {
		for i := 0; i < ladderWriteVs; i++ {
			// Workers cover disjoint halves of the region.
			offs, pgs := batch(int64(w*ladderPages/ladderWorkers+(i*writeVPages)%(ladderPages/ladderWorkers)), gen)
			sp := ln.begin(name, parent)
			err := st.WriteV(h, offs, pgs)
			ln.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	})
}

// rungWrites times single-page writes of generation gen.
func rungWrites(tr *tracer, parent int64, name string, st pageStore, h uint64, gen uint32, seed int64) error {
	return parallel(tr, func(w int, ln *lane) error {
		rng := rand.New(rand.NewSource(seed + int64(w)))
		page := make([]byte, pageBytes)
		for i := 0; i < ladderWrites; i++ {
			// Workers write disjoint halves so each page has one writer.
			pg := int64(w*ladderPages/ladderWorkers) + rng.Int63n(ladderPages/ladderWorkers)
			pagePattern(page, pg, gen)
			sp := ln.begin(name, parent)
			err := st.Write(h, pg*pageBytes, page)
			ln.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	})
}

// memmoveNs times 4 KiB copies in batches; the span is the batch.
func memmoveNs(ln *lane, parent int64) float64 {
	const perBatch, batches = 1000, 200
	src := make([]byte, pageBytes)
	dst := make([]byte, pageBytes)
	pagePattern(src, 1, 0)
	var per []float64
	for b := 0; b < batches; b++ {
		sp := ln.begin("ladder.memmove_x1000", parent)
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			copy(dst, src)
			src[i%pageBytes] ^= dst[(i+1)%pageBytes] // keep the copy live
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/perBatch)
		ln.end(sp)
	}
	return median(per)
}

// nodeRung measures one memnode client pinned to a transport.
func nodeRung(tr *tracer, parent int64, addr string, transport int, name string, seed int64) (*memnode.Client, error) {
	c, err := memnode.DialOptions(addr, memnode.Options{Transport: transport})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", name, err)
	}
	h, err := c.Register(ladderPages * pageBytes)
	if err == nil {
		err = fillRegion(c, h, 1)
	}
	if err == nil {
		err = rungReads(tr, parent, name+".read", c, h, 1, seed)
	}
	if err == nil && transport == memnode.TransportShm {
		err = rungWriteVs(tr, parent, name+".writev", c, h, 2)
	}
	if err != nil {
		_ = c.Close() // the measurement error is the one to report
		return nil, err
	}
	return c, nil
}

// clusterRung measures Read, Write and WriteV on the 2x2 cluster.
func clusterRung(tr *tracer, parent int64, cl *memcluster.Cluster, seed int64) error {
	h, err := cl.Register(ladderPages * pageBytes)
	if err != nil {
		return err
	}
	if err := fillRegion(cl, h, 1); err != nil {
		return err
	}
	if err := rungReads(tr, parent, "memcluster.read", cl, h, 1, seed); err != nil {
		return err
	}
	if err := rungWrites(tr, parent, "memcluster.write", cl, h, 2, seed); err != nil {
		return err
	}
	return rungWriteVs(tr, parent, "memcluster.writev", cl, h, 3)
}

// replayResult is the pager's counters over a replay.
type replayResult struct {
	stats        upager.Stats
	faultP50Us   float64
	faultP99Us   float64
	faultSamples uint64
	ops          int64
	heapPages    uint64
	frames       int
}

// pagerReplay replays the workload's key stream on a fresh pager with
// magecache's heap geometry: a GET pins its key's page for reading, a
// SET moves the key to a new cell and pins that page for writing.
func pagerReplay(tr *tracer, parent int64, cl *memcluster.Cluster, m mix, seed int64) (replayResult, error) {
	heapPages := heapPagesFor(stackKeys)
	frames := framesFor(heapPages, stackRatio)
	p, err := upager.New(cl, heapPages, frames, upager.Options{NoPrefetch: true})
	if err != nil {
		return replayResult{}, err
	}
	hm := newHeapModel(stackKeys)
	err = parallel(tr, func(w int, ln *lane) error {
		ks := newKeyStream(m, stackKeys, seed+1, w)
		ks.restart(replayOps / ladderWorkers)
		for i := 0; i < replayOps/ladderWorkers; i++ {
			rq := ks.next()
			var pg uint64
			if rq.set {
				pg = hm.set(rq.key)
			} else {
				pg = hm.page(rq.key)
			}
			sp := ln.begin("upager.pin", parent)
			fr, err := p.Pin(pg, rq.set)
			if err == nil {
				fr.Unpin()
			}
			ln.end(sp)
			if err != nil {
				return fmt.Errorf("upager.pin page %d: %w", pg, err)
			}
		}
		return nil
	})
	res := replayResult{stats: p.Stats(), ops: replayOps, heapPages: heapPages, frames: frames}
	fl := p.FaultLatency()
	res.faultSamples = fl.Count()
	res.faultP50Us = float64(fl.P50()) / 1e3
	res.faultP99Us = float64(fl.P99()) / 1e3
	if cerr := p.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("upager close: %w", cerr)
	}
	return res, err
}
