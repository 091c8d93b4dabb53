package memcluster_test

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time" // tests of the real cluster client need wall-clock deadlines

	"mage/internal/memcluster"
	"mage/internal/memcluster/placement"
	"mage/internal/memnode"
)

// ownerIdx is the index of the shard owning page p of region h in a
// topology whose stable shard IDs are ids. The cluster allocates IDs
// 1, 2, ... in join order, so a 2-shard cluster that gains a shard has
// ids {1, 2, 3}.
func ownerIdx(h uint64, p int64, ids ...uint64) int {
	return placement.ShardOfIDs(placement.Key(h, uint64(p)), ids)
}

// replicaAt returns the stats of the replica at addr.
func replicaAt(cl *memcluster.Cluster, addr string) (memcluster.ReplicaStats, bool) {
	for _, sh := range cl.Stats().PerShard {
		for _, rs := range sh.Replicas {
			if rs.Addr == addr {
				return rs, true
			}
		}
	}
	return memcluster.ReplicaStats{}, false
}

// demote probes until the replica at addr (whose server is dead) is
// marked down.
func demote(t *testing.T, cl *memcluster.Cluster, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		cl.ProbeNow()
		if rs, ok := replicaAt(cl, addr); ok && !rs.Healthy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never demoted", addr)
		}
	}
}

// readmitted probes until the replica at addr is healthy again.
func readmitted(t *testing.T, cl *memcluster.Cluster, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		cl.ProbeNow()
		if rs, ok := replicaAt(cl, addr); ok && rs.Healthy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never re-admitted; stats: %+v", addr, cl.Stats())
		}
	}
}

// restartEmpty starts a fresh, empty memnode on a dead server's
// address. The bind can race the dying listener, so it polls.
func restartEmpty(t *testing.T, addr string) *memnode.Server {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		srv, err := memnode.NewServer(addr, 64<<20)
		if err == nil {
			t.Cleanup(func() { srv.Close() })
			return srv
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		runtime.Gosched()
	}
}

// writeSpan writes version v of a region of size bytes, page by page;
// the last page is partial when size is not a page multiple.
func writeSpan(t *testing.T, cl *memcluster.Cluster, h uint64, size int64, v byte) {
	t.Helper()
	for off := int64(0); off < size; off += testPage {
		body := pageBody(off/testPage, v)[:min(testPage, size-off)]
		if err := cl.Write(h, off, body); err != nil {
			t.Fatalf("write region %d off %d: %v", h, off, err)
		}
	}
}

// checkSpan verifies version v of a region written by writeSpan.
func checkSpan(t *testing.T, cl *memcluster.Cluster, h uint64, size int64, v byte) {
	t.Helper()
	for off := int64(0); off < size; off += testPage {
		n := min(testPage, size-off)
		got, err := cl.Read(h, off, n)
		if err != nil {
			t.Fatalf("read region %d off %d: %v", h, off, err)
		}
		if !bytes.Equal(got, pageBody(off/testPage, v)[:n]) {
			t.Fatalf("region %d off %d (%d bytes) does not hold version %d", h, off, n, v)
		}
		memnode.PutBuf(got)
	}
}

// delayGate slows every proxy built on it: once slow is set, each chunk
// of client→server bytes waits delay before it is forwarded. hit closes
// when the first chunk is held.
type delayGate struct {
	delay time.Duration
	slow  atomic.Bool
	once  sync.Once
	hit   chan struct{}
}

func newDelayGate(delay time.Duration) *delayGate {
	return &delayGate{delay: delay, hit: make(chan struct{})}
}

// proxy forwards a fresh local address to target through the gate.
func (g *delayGate) proxy(t *testing.T, target string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				cli.Close()
				continue
			}
			go func() {
				defer up.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := cli.Read(buf)
					if n > 0 {
						if g.slow.Load() {
							g.once.Do(func() { close(g.hit) })
							time.Sleep(g.delay)
						}
						if _, werr := up.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
			go func() {
				defer cli.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := up.Read(buf)
					if n > 0 {
						if _, werr := cli.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClusterMigrationNeedsCurrentSource pins the mover's source
// ladder: a migration reads only from current replicas. Replica A misses
// the version-2 writes while down and comes back empty without being
// re-admitted; replica B, the only current one, dies unnoticed. A join
// then has no current source for the pages it moves, so it must fail
// rather than make A's stale (here: zero) pages authoritative on the
// joined shard.
func TestClusterMigrationNeedsCurrentSource(t *testing.T) {
	srvs, addrs := startServers(t, 1, 2)
	cl, err := memcluster.New(addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(testPages * testPage)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, cl, h, 1)
	aAddr := srvs[0][0].Addr()
	srvs[0][0].Close()
	demote(t, cl, aAddr)
	writeAll(t, cl, h, 2) // B only
	restartEmpty(t, aAddr)
	srvs[0][1].Close()

	_, joinAddrs := startServers(t, 1, 1)
	if err := cl.AddShard(joinAddrs[0]); err != nil {
		if got := cl.Stats().Shards; got != 1 {
			t.Fatalf("failed join left %d shards, want 1", got)
		}
		return
	}
	// The join claimed success: every page the joined shard serves must
	// then carry version 2.
	moved := 0
	for p := int64(0); p < testPages; p++ {
		if ownerIdx(h, p, 1, 2) != 1 {
			continue
		}
		moved++
		got, err := cl.Read(h, p*testPage, testPage)
		if err != nil {
			t.Fatalf("read moved page %d: %v", p, err)
		}
		if !bytes.Equal(got, pageBody(p, 2)) {
			t.Fatalf("moved page %d was copied from a stale replica", p)
		}
		memnode.PutBuf(got)
	}
	if moved == 0 {
		t.Fatal("the join moved no page; the test proves nothing")
	}
}

// TestClusterResyncWaitsForMigration pins the resync guard: a replica
// is not admitted while a migration is in flight. Shard 1 sits behind
// a proxy that slows every request, so RemoveShard(1)'s bulk copy is
// still running when the restarted replica 0a finishes its own copy
// and asks for the write lock. The migration picked its targets while
// 0a was down, so admitting 0a then would leave it without the pages
// that move home; with the guard it stays down and a later probe
// resyncs it against the shrunk topology. With 0b killed at the end,
// 0a alone must serve every page.
func TestClusterResyncWaitsForMigration(t *testing.T) {
	srvs, addrs := startServers(t, 2, 2)
	gate := newDelayGate(300 * time.Millisecond)
	for r := range addrs[1] {
		addrs[1][r] = gate.proxy(t, addrs[1][r])
	}
	opts := testOpts()
	opts.Node.IOTimeout = 10 * time.Second // the slowed requests queue behind each other
	cl, err := memcluster.New(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Eight regions make eight sequential slowed copies out of shard 1,
	// so the migration outlasts the probe sweep and 0a's resync.
	const regions, pages = 8, int64(256)
	var hs []uint64
	for i := 0; i < regions; i++ {
		h, err := cl.Register(pages * testPage)
		if err != nil {
			t.Fatal(err)
		}
		writeSpan(t, cl, h, pages*testPage, byte(i+1))
		hs = append(hs, h)
	}
	aAddr := srvs[0][0].Addr()
	srvs[0][0].Close()
	demote(t, cl, aAddr)
	restartEmpty(t, aAddr)

	gate.slow.Store(true)
	removed := make(chan error, 1)
	go func() { removed <- cl.RemoveShard(1) }()
	<-gate.hit // the migration's bulk copy is on the wire
	cl.ProbeNow()
	if err := <-removed; err != nil {
		t.Fatalf("RemoveShard: %v", err)
	}
	gate.slow.Store(false)
	readmitted(t, cl, aAddr)
	srvs[0][1].Close()
	for i, h := range hs {
		checkSpan(t, cl, h, pages*testPage, byte(i+1))
	}
}

// TestClusterTailPage moves regions whose size is not a multiple of
// PageBytes through a resync, a join and a leave: the partial last page
// travels as a batch of its own length.
func TestClusterTailPage(t *testing.T) {
	const size = testPages*testPage - testPage/3
	t.Run("resync", func(t *testing.T) {
		srvs, addrs := startServers(t, 1, 2)
		cl, err := memcluster.New(addrs, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		h, err := cl.Register(size)
		if err != nil {
			t.Fatal(err)
		}
		writeSpan(t, cl, h, size, 1)
		aAddr := srvs[0][0].Addr()
		srvs[0][0].Close()
		demote(t, cl, aAddr)
		writeSpan(t, cl, h, size, 2)
		restartEmpty(t, aAddr)
		readmitted(t, cl, aAddr)
		srvs[0][1].Close()
		checkSpan(t, cl, h, size, 2)
	})
	t.Run("rebalance", func(t *testing.T) {
		_, addrs := startServers(t, 2, 1)
		cl, err := memcluster.New(addrs, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// Several regions, so some tail page changes owner on the join
		// (and moves back on the leave); the loop below proves it.
		var hs []uint64
		tailsMoved := 0
		last := (size - 1) / testPage
		for i := 0; i < 6; i++ {
			h, err := cl.Register(size)
			if err != nil {
				t.Fatal(err)
			}
			writeSpan(t, cl, h, size, 1)
			hs = append(hs, h)
			if ownerIdx(h, last, 1, 2, 3) == 2 {
				tailsMoved++
			}
		}
		if tailsMoved == 0 {
			t.Fatal("no tail page changes owner; pick more regions")
		}
		_, joinAddrs := startServers(t, 1, 1)
		if err := cl.AddShard(joinAddrs[0]); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
		for _, h := range hs {
			checkSpan(t, cl, h, size, 1)
			writeSpan(t, cl, h, size, 2)
		}
		if err := cl.RemoveShard(2); err != nil {
			t.Fatalf("RemoveShard: %v", err)
		}
		for _, h := range hs {
			checkSpan(t, cl, h, size, 2)
		}
	})
}

// TestClusterJoinCoversLateRegions registers and writes a region while
// AddShard is copying. The joined replica sits behind a slowed proxy
// and its first byte is the first register of the bulk copy, so the
// region provably post-dates the copy's region snapshot: the final
// settle must register it on the joined shard and copy the pages the
// join moves.
func TestClusterJoinCoversLateRegions(t *testing.T) {
	_, addrs := startServers(t, 2, 1)
	cl, err := memcluster.New(addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 4; i++ {
		h, err := cl.Register(testPages * testPage)
		if err != nil {
			t.Fatal(err)
		}
		writeAll(t, cl, h, byte(i+1))
	}
	gate := newDelayGate(100 * time.Millisecond)
	gate.slow.Store(true)
	_, joinAddrs := startServers(t, 1, 1)
	joinAddr := gate.proxy(t, joinAddrs[0][0])
	joined := make(chan error, 1)
	go func() { joined <- cl.AddShard([]string{joinAddr}) }()
	<-gate.hit // the bulk copy has taken its region snapshot

	h, err := cl.Register(testPages * testPage)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, cl, h, 9)
	if got := cl.Stats().Shards; got != 2 {
		t.Fatalf("the join finished before the late writes (%d shards); the test proves nothing", got)
	}
	if err := <-joined; err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	gate.slow.Store(false)
	checkAll(t, cl, h, 9)
}
