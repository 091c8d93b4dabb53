// The wire protocol: multiplexed, pipelined frames.
//
// Every frame carries a request ID so a single connection can
// multiplex many outstanding operations, and the batched verbs
// READV/WRITEV move N pages in one frame — the transport analogue of
// the DES evictor's grouped writebacks (internal/core/evict.go).
//
// A connection opens with a HELLO, the only frame with its own layout,
// little-endian:
//
//	request:  op(1)=0xA5 magic(8) version(8) zero(8)
//	response: status(1) length(8) payload(length)
//
// A server that accepts the version answers statusOK with a payload of
// magic(8) version(8), optionally followed by the shm transport
// extension (shm_server.go), and both sides switch to the frames
// below. Any other opener gets statusErr and the connection closes.
//
// Frames after the HELLO:
//
//	request:  op(1) id(8) regionID(8) offset(8) length(8) payload(...)
//	response: status(1) id(8) length(8) payload(length)
//
// Payload by op:
//
//	READ      none; length = bytes to read
//	WRITE     length bytes of data
//	REGISTER  none; length = region size
//	STAT      none
//	READV     count(8) then count×{offset(8) length(8)} descriptors;
//	          header length = payload bytes (8 + 16·count). The response
//	          payload is the descriptors' data, concatenated in order.
//	WRITEV    count(8), descriptors as READV, then the data for every
//	          descriptor concatenated in order.
//
// Batch verbs validate every descriptor before touching the region, so
// a batch either fully applies or fully fails — which keeps the
// idempotent-retry story identical to the single-page verbs.
package memnode

import (
	"encoding/binary"
	"fmt"
	"sync" //magevet:ok memnode is a real TCP service; the frame buffer pool is shared by client and server goroutines
)

// protoV2 is the protocol version a HELLO proposes and accepts.
const protoV2 = 2

// Batch and negotiation opcodes (the single-page verbs live in
// memnode.go).
const (
	opReadV  = 5
	opWriteV = 6
	// opHello opens every connection. It lies far from the verb range so
	// a stray frame can never be mistaken for it.
	opHello = 0xA5
)

// helloMagic fills the regionID field of a HELLO request and leads the
// HELLO response payload, so stray traffic can never be mistaken for a
// negotiation.
const helloMagic uint64 = 0x3250_5745_4741_4d21 // "!MAGEWP2" (LE)

// Frame-size constants.
const (
	helloReqLen     = 25 // op(1) magic(8) version(8) zero(8)
	helloRespHdrLen = 9  // status(1) length(8)
	helloRespLen    = 16 // magic(8) version(8)
	v2ReqHdrLen     = 33 // op(1) id(8) regionID(8) offset(8) length(8)
	v2RespHdrLen    = 17 // status(1) id(8) length(8)
)

// MaxBatchPages bounds the descriptor count of one READV/WRITEV frame.
const MaxBatchPages = 1024

// maxV2Payload bounds a v2 request or response payload: the largest
// legal frame is a WRITEV carrying MaxIO bytes of data plus a full
// descriptor table. Anything larger is a protocol violation and
// terminates the connection.
const maxV2Payload = MaxIO + 8 + 16*MaxBatchPages

// iovec is one page-sized slot of a batched verb.
type iovec struct {
	off    int64
	length int64
}

// putIovecs encodes count + descriptors into a fresh slice of the exact
// encoded size (8 + 16·len(iovs) bytes).
func putIovecs(iovs []iovec) []byte {
	buf := make([]byte, 8+16*len(iovs))
	binary.LittleEndian.PutUint64(buf, uint64(len(iovs)))
	for i, v := range iovs {
		binary.LittleEndian.PutUint64(buf[8+16*i:], uint64(v.off))
		binary.LittleEndian.PutUint64(buf[16+16*i:], uint64(v.length))
	}
	return buf
}

// parseIovecs decodes and bounds-checks a batch descriptor table. It
// returns the descriptors, the number of payload bytes consumed, and the
// total data bytes the descriptors cover.
func parseIovecs(payload []byte) (iovs []iovec, consumed int, total int64, err error) {
	if len(payload) < 8 {
		return nil, 0, 0, fmt.Errorf("batch: truncated count (have %d bytes)", len(payload))
	}
	n := binary.LittleEndian.Uint64(payload)
	if n == 0 || n > MaxBatchPages {
		return nil, 0, 0, fmt.Errorf("batch: bad page count %d (max %d)", n, MaxBatchPages)
	}
	consumed = 8 + 16*int(n)
	if len(payload) < consumed {
		return nil, 0, 0, fmt.Errorf("batch: truncated descriptors (%d pages, %d bytes)", n, len(payload))
	}
	iovs = make([]iovec, n)
	for i := range iovs {
		iovs[i].off = int64(binary.LittleEndian.Uint64(payload[8+16*i:]))
		iovs[i].length = int64(binary.LittleEndian.Uint64(payload[16+16*i:]))
		if iovs[i].length <= 0 || iovs[i].length > MaxIO {
			return nil, 0, 0, fmt.Errorf("batch: bad descriptor length %d", iovs[i].length)
		}
		total += iovs[i].length
		if total > MaxIO {
			return nil, 0, 0, fmt.Errorf("batch: total %d exceeds MaxIO", total)
		}
	}
	return iovs, consumed, total, nil
}

// bufPool recycles payload buffers on both sides of the wire: the
// server's per-request read and response buffers, and the client's
// response bodies. Buffers are pooled as *[]byte to keep the slice
// header off the heap.
var bufPool = sync.Pool{}

// getBuf returns a length-n buffer backed by the pool when a pooled
// buffer is large enough, allocating (with power-of-two rounding, 4 KiB
// minimum) otherwise. Contents are unspecified.
func getBuf(n int) []byte {
	if v := bufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this request; let it age out rather than hold
		// many undersized buffers captive.
	}
	c := 4096
	for c < n {
		c <<= 1
	}
	return make([]byte, n, c)
}

// PutBuf returns a buffer obtained from Client.Read (or any getBuf
// caller) to the shared pool. Optional: unreturned buffers are simply
// garbage-collected. After PutBuf the caller must not touch b again.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	// Arena-backed shm read bodies go home to their arena, not the pool
	// (pooling a slice of a mapping that can be unmapped would be a
	// use-after-unmap wired into every later getBuf).
	if shmReleaseBuf(b) {
		return
	}
	if cap(b) > maxV2Payload {
		return
	}
	// Box a slice declared after the early returns: taking &b would make
	// the parameter escape and cost every caller a heap allocation, even
	// on the arena path above that never touches the pool.
	s := b[:0]
	bufPool.Put(&s)
}
