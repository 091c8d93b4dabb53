// magecache is a GET/SET KV cache front end whose value heap lives in
// far memory: the heap is a paged region managed by internal/upager, so
// the cache's working set occupies a bounded local arena while the long
// tail pages in on demand. It is the repo's end-to-end proof that the
// fault/evict machinery serves real traffic, not just benchmarks.
package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mage/internal/upager"
)

const pageBytes = 4096

// classSizes are the slab size classes. Every class divides the page
// size, so a slot never crosses a page boundary and a GET pins exactly
// one page.
var classSizes = [...]int{64, 128, 256, 512, 1024, 2048, 4096}

func classFor(n int) (int, bool) {
	for i, s := range classSizes {
		if n <= s {
			return i, true
		}
	}
	return 0, false
}

// slot names one slab cell in the paged heap.
type slot struct {
	pg  uint32
	off uint16
}

// entry is one index record: where the value lives and how long it is.
type entry struct {
	pg  uint32
	off uint16
	ln  uint16 // stored length - 1 would be needed past 65535; 4096 max fits
	cls uint8
	set bool // distinguishes the zero entry from a real one
}

type slotKey struct {
	s   slot
	key string
}

const indexShards = 64

type idxShard struct {
	mu sync.Mutex
	m  map[string]entry
}

// Cache is the sharded KV index plus the slab allocator over the paged
// value heap.
type Cache struct {
	pager  *upager.Pager
	shards [indexShards]idxShard
	// cells orders the value copies on one heap page: Set writes a cell
	// under the write lock, Get reads one under the read lock. A Get on
	// a stale entry can be reading a cell that a steal just handed to a
	// Set; it discards those bytes on revalidation, but the copies must
	// still not overlap.
	cells [indexShards]sync.RWMutex

	// Slab allocator state. Lock order: alloc.mu and a shard mu are
	// never held together except in steal, which holds neither across
	// the other (it releases alloc.mu before touching a shard).
	alloc struct {
		mu       sync.Mutex
		free     [len(classSizes)][]slot
		fifo     [len(classSizes)][]slotKey // allocation order, for steal
		fifoHead [len(classSizes)]int
		nextPage uint32
		pages    uint32
	}

	steals atomic.Uint64
	sets   atomic.Uint64
	gets   atomic.Uint64
	misses atomic.Uint64
}

// CacheOptions sizes a cache.
type CacheOptions struct {
	// Pager tunables forwarded to upager.New.
	Pager upager.Options
}

// NewCache builds a cache whose value heap is heapPages pages backed by
// b, paged through frames local frames (remote:local = heapPages/frames).
func NewCache(b upager.Backing, heapPages uint64, frames int, opts CacheOptions) (*Cache, error) {
	po := opts.Pager
	if po.PageBytes == 0 {
		po.PageBytes = pageBytes
	}
	if po.PageBytes != pageBytes {
		return nil, fmt.Errorf("magecache: page size must be %d", pageBytes)
	}
	p, err := upager.New(b, heapPages, frames, po)
	if err != nil {
		return nil, err
	}
	c := &Cache{pager: p}
	c.alloc.pages = uint32(heapPages)
	for i := range c.shards {
		c.shards[i].m = make(map[string]entry)
	}
	return c, nil
}

// Close flushes the paged heap. The backing store stays open.
func (c *Cache) Close() error { return c.pager.Close() }

// Pager exposes the underlying pager (for stats reporting).
func (c *Cache) Pager() *upager.Pager { return c.pager }

func (c *Cache) shard(key string) *idxShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%indexShards]
}

// allocSlot returns a free cell of class cls, carving a fresh heap page
// when the free list is empty and stealing the oldest allocated cell of
// the class (FIFO eviction of its key) when the heap is exhausted.
func (c *Cache) allocSlot(cls int, key string) (slot, error) {
	a := &c.alloc
	for {
		a.mu.Lock()
		if n := len(a.free[cls]); n > 0 {
			s := a.free[cls][n-1]
			a.free[cls] = a.free[cls][:n-1]
			a.mu.Unlock()
			return s, nil
		}
		if a.nextPage < a.pages {
			pg := a.nextPage
			a.nextPage++
			size := classSizes[cls]
			for off := pageBytes - size; off >= size; off -= size {
				a.free[cls] = append(a.free[cls], slot{pg: pg, off: uint16(off)})
			}
			a.mu.Unlock()
			return slot{pg: pg, off: 0}, nil
		}
		// Heap exhausted: steal the oldest cell of this class.
		if a.fifoHead[cls] >= len(a.fifo[cls]) {
			a.mu.Unlock()
			return slot{}, fmt.Errorf("magecache: heap full and no class-%d cell to steal", classSizes[cls])
		}
		cand := a.fifo[cls][a.fifoHead[cls]]
		a.fifoHead[cls]++
		if a.fifoHead[cls] > len(a.fifo[cls])/2 && a.fifoHead[cls] > 1024 {
			a.fifo[cls] = append([]slotKey(nil), a.fifo[cls][a.fifoHead[cls]:]...)
			a.fifoHead[cls] = 0
		}
		a.mu.Unlock()
		// Validate outside alloc.mu (lock-order: never both at once).
		sh := c.shard(cand.key)
		sh.mu.Lock()
		e, ok := sh.m[cand.key]
		if ok && e.pg == cand.s.pg && e.off == cand.s.off {
			delete(sh.m, cand.key)
			sh.mu.Unlock()
			c.steals.Add(1)
			return cand.s, nil
		}
		sh.mu.Unlock()
		// Stale record (the key moved or died); its cell was freed
		// separately. Loop for the next candidate.
	}
}

func (c *Cache) freeSlot(cls int, s slot) {
	a := &c.alloc
	a.mu.Lock()
	a.free[cls] = append(a.free[cls], s)
	a.mu.Unlock()
}

func (c *Cache) pushFIFO(cls int, s slot, key string) {
	a := &c.alloc
	a.mu.Lock()
	a.fifo[cls] = append(a.fifo[cls], slotKey{s: s, key: key})
	a.mu.Unlock()
}

// ErrValueTooLarge rejects values over one page.
var ErrValueTooLarge = errors.New("magecache: value exceeds page size")

// Set stores key=val (cache-aside fill or overwrite).
func (c *Cache) Set(key string, val []byte) error {
	cls, ok := classFor(len(val))
	if !ok {
		return ErrValueTooLarge
	}
	s, err := c.allocSlot(cls, key)
	if err != nil {
		return err
	}
	fr, err := c.pager.Pin(uint64(s.pg), true)
	if err != nil {
		c.freeSlot(cls, s)
		return err
	}
	cell := &c.cells[s.pg%indexShards]
	cell.Lock()
	copy(fr.Data[s.off:int(s.off)+len(val)], val)
	cell.Unlock()
	fr.Unpin()

	e := entry{pg: s.pg, off: s.off, ln: uint16(len(val)), cls: uint8(cls), set: true}
	sh := c.shard(key)
	sh.mu.Lock()
	old, had := sh.m[key]
	sh.m[key] = e
	sh.mu.Unlock()
	c.pushFIFO(cls, s, key)
	if had {
		c.freeSlot(int(old.cls), slot{pg: old.pg, off: old.off})
	}
	c.sets.Add(1)
	return nil
}

// Get returns a copy of key's value. The copy-then-revalidate loop
// handles the rare race where a steal reuses the cell mid-read: if the
// index entry changed while the bytes were being copied, the read
// retries against the fresh entry.
func (c *Cache) Get(key string) ([]byte, bool, error) {
	c.gets.Add(1)
	sh := c.shard(key)
	for {
		sh.mu.Lock()
		e, ok := sh.m[key]
		sh.mu.Unlock()
		if !ok {
			c.misses.Add(1)
			return nil, false, nil
		}
		fr, err := c.pager.Pin(uint64(e.pg), false)
		if err != nil {
			return nil, false, err
		}
		out := make([]byte, e.ln)
		cell := &c.cells[e.pg%indexShards]
		cell.RLock()
		copy(out, fr.Data[e.off:uint32(e.off)+uint32(e.ln)])
		cell.RUnlock()
		fr.Unpin()
		sh.mu.Lock()
		e2, ok2 := sh.m[key]
		sh.mu.Unlock()
		if ok2 && e2 == e {
			return out, true, nil
		}
		if !ok2 {
			c.misses.Add(1)
			return nil, false, nil
		}
		// The entry moved (overwrite or steal+refill): retry.
	}
}

// Delete removes key, freeing its cell.
func (c *Cache) Delete(key string) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
	if ok {
		c.freeSlot(int(e.cls), slot{pg: e.pg, off: e.off})
	}
	return ok
}

// CacheStats is a snapshot of cache-level counters (pager counters live
// in Pager().Stats()).
type CacheStats struct {
	Gets, Misses, Sets, Steals uint64
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Gets:   c.gets.Load(),
		Misses: c.misses.Load(),
		Sets:   c.sets.Load(),
		Steals: c.steals.Load(),
	}
}
