package main

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// The value model: every value the benchmark stores is derived from its
// key and a per-key version, so every GET reply can be checked exactly.
// A value is an 8-byte stamp followed by a fill byte repeated to the
// key's length. The length depends only on the key (64..1023 bytes), so
// a key always stays in the same slab class of magecache's heap.

const stampMagic = 0x6d61676562656e63 // "magebenc"

func fnv64(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

func keyName(k int64) string { return fmt.Sprintf("k%012x", k) }

// valLen is key k's value length: 64..1023 bytes.
func valLen(k int64) int { return 64 + int(fnv64(uint64(k))%960) }

func valStamp(k int64, ver uint32) uint64 { return uint64(k) ^ uint64(ver)<<32 ^ stampMagic }

func valFill(k int64, ver uint32) byte { return byte(fnv64(uint64(k) ^ uint64(ver)<<32 ^ 0xfeed)) }

// appendVal appends version ver of key k's value to dst.
func appendVal(dst []byte, k int64, ver uint32) []byte {
	n := valLen(k)
	var st [8]byte
	binary.LittleEndian.PutUint64(st[:], valStamp(k, ver))
	dst = append(dst, st[:]...)
	fill := valFill(k, ver)
	for i := 8; i < n; i++ {
		dst = append(dst, fill)
	}
	return dst
}

// checkVal reports whether v is exactly version ver of key k's value.
func checkVal(k int64, ver uint32, v []byte) error {
	if len(v) != valLen(k) {
		return fmt.Errorf("key %d: length %d, want %d", k, len(v), valLen(k))
	}
	if got, want := binary.LittleEndian.Uint64(v), valStamp(k, ver); got != want {
		return fmt.Errorf("key %d: stamp %#x, want %#x (version %d)", k, got, want, ver)
	}
	fill := valFill(k, ver)
	for i := 8; i < len(v); i++ {
		if v[i] != fill {
			return fmt.Errorf("key %d: fill byte %d is %#x, want %#x", k, i, v[i], fill)
		}
	}
	return nil
}

// The heap model replays magecache's slab allocator so that a key
// stream can be turned into the page stream the cache's pager sees:
// the same size classes, the same carve order within a fresh page, the
// same LIFO free lists, and a SET that takes a new cell before it frees
// the old one. It mirrors cmd/magecache/cache.go, which is package main
// and cannot be imported; launchStack checks the heap and frame counts
// magecache reports against heapPagesFor and framesFor.

const pageBytes = 4096

var classSizes = [...]int{64, 128, 256, 512, 1024, 2048, 4096}

func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	panic(fmt.Sprintf("value of %d bytes exceeds a page", n))
}

// heapPagesFor is magecache's heap size for a key space.
func heapPagesFor(keys int64) uint64 {
	return uint64(keys/4 + keys/64 + int64(len(classSizes)) + 8)
}

// framesFor is magecache's local frame count at a remote:local ratio.
func framesFor(heapPages uint64, ratio int) int {
	frames := int(heapPages) / ratio
	if frames < 64 {
		frames = 64
	}
	return frames
}

type cell struct {
	pg  uint32
	off uint16
}

type heapModel struct {
	mu    sync.Mutex
	next  uint32
	pages uint32
	free  [len(classSizes)][]cell
	at    []cell // key -> its current cell
}

// newHeapModel lays out keys 0..keys-1 in order, as a prefill would.
func newHeapModel(keys int64) *heapModel {
	h := &heapModel{pages: uint32(heapPagesFor(keys)), at: make([]cell, keys)}
	for k := int64(0); k < keys; k++ {
		h.at[k] = h.alloc(classFor(valLen(k)))
	}
	return h
}

func (h *heapModel) alloc(cls int) cell {
	if n := len(h.free[cls]); n > 0 {
		c := h.free[cls][n-1]
		h.free[cls] = h.free[cls][:n-1]
		return c
	}
	if h.next >= h.pages {
		// magecache would steal the oldest cell here; the heap is sized
		// so that the benchmark's key space never gets this far.
		panic("heap model: heap exhausted")
	}
	pg := h.next
	h.next++
	size := classSizes[cls]
	for off := pageBytes - size; off >= size; off -= size {
		h.free[cls] = append(h.free[cls], cell{pg: pg, off: uint16(off)})
	}
	return cell{pg: pg}
}

// page returns the page a GET of key k touches.
func (h *heapModel) page(k int64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return uint64(h.at[k].pg)
}

// set moves key k to a new cell, as magecache's Set does, and returns
// the page the SET writes.
func (h *heapModel) set(k int64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	cls := classFor(valLen(k))
	c := h.alloc(cls)
	old := h.at[k]
	h.at[k] = c
	h.free[cls] = append(h.free[cls], old)
	return uint64(c.pg)
}
