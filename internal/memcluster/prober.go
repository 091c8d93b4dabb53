// Health probing and replica re-admission.
//
// The prober samples every replica's STATS verb on a fixed cadence.
// Healthy replicas refresh their selection weight (free bytes) and
// load signal (in-flight depth); replicas that stop answering are
// demoted. Down replicas are re-probed with exponential backoff, and
// a replica that answers again is re-admitted only after resync —
// copying every page its shard owns back from a current peer with the
// page mover (mover.go) — so a node that restarted (and lost its
// regions) or merely missed writes never serves stale pages.
//
// Resync correctness leans on three mechanisms: the write path logs the
// key of every completed write to a resyncing shard (the dirty log);
// the final settle pass runs under the cluster's topology write lock,
// which drains all in-flight ops; and that final pass admits nothing
// while a migration is in flight, because a migration picks its copy
// targets among healthy replicas and never dirty-logs its own copies.
// Every write therefore either lands before the bulk copy reads the
// page, or is in the dirty log when the final pass copies it. Regions
// registered after the resync began are copied in full by the settle
// passes, which read the live region table rather than the bulk
// copy's snapshot.
package memcluster

import (
	"time"

	"mage/internal/memnode"
)

// proberLoop is the background health prober.
func (cl *Cluster) proberLoop() {
	defer cl.proberWG.Done()
	t := time.NewTimer(cl.opts.ProbeInterval) //magevet:ok real network client: health-probe cadence
	defer t.Stop()
	for {
		select {
		case <-cl.closed:
			return
		case <-t.C:
		}
		cl.ProbeNow()
		t.Reset(cl.opts.ProbeInterval)
	}
}

// ProbeNow runs one probe sweep synchronously: refresh weights of
// healthy replicas, demote the unresponsive, and attempt re-admission
// of down replicas whose backoff has elapsed. Exported so tests (and
// DisableProber configurations) control probe timing explicitly.
func (cl *Cluster) ProbeNow() {
	if cl.checkClosed() != nil {
		return
	}
	cl.topoMu.RLock()
	topo := cl.topo
	cl.topoMu.RUnlock()
	type cand struct {
		sh *shard
		r  *replica
	}
	var readmits []cand
	for _, sh := range topo.shards {
		sh.mu.Lock()
		reps := append([]*replica(nil), sh.replicas...)
		sh.mu.Unlock()
		for _, r := range reps {
			sh.mu.Lock()
			healthy := r.healthy
			resyncing := r.resyncing
			c := r.c
			due := r.nextProbe.IsZero() || time.Now().After(r.nextProbe) //magevet:ok probe-backoff schedule on a real network client
			sh.mu.Unlock()
			if resyncing {
				continue
			}
			if healthy {
				h, err := c.Probe()
				if err != nil {
					if !memnode.IsTerminal(err) {
						cl.markDown(sh, r, false)
					}
					continue
				}
				sh.mu.Lock()
				r.weight, r.inflight = h.FreeBytes, h.InFlight
				sh.mu.Unlock()
				continue
			}
			if !due {
				continue
			}
			if c == nil {
				nc, err := memnode.DialOptions(r.addr, cl.opts.Node)
				if err != nil {
					cl.bumpProbeBackoff(sh, r)
					continue
				}
				sh.mu.Lock()
				r.c = nc
				c = nc
				sh.mu.Unlock()
			}
			if _, err := c.Probe(); err != nil {
				cl.bumpProbeBackoff(sh, r)
				continue
			}
			readmits = append(readmits, cand{sh, r})
		}
	}
	// Resyncs run after the sweep, outside any probe bookkeeping: each
	// takes the topology write lock for its final settle.
	for _, cd := range readmits {
		if err := cl.readmit(cd.sh, cd.r); err != nil {
			cl.bumpProbeBackoff(cd.sh, cd.r)
		}
	}
}

// bumpProbeBackoff doubles a down replica's re-probe delay up to the
// configured cap.
func (cl *Cluster) bumpProbeBackoff(sh *shard, r *replica) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.probeBackoff <= 0 {
		r.probeBackoff = cl.opts.ProbeInterval
	} else {
		r.probeBackoff *= 2
	}
	if r.probeBackoff > cl.opts.ProbeBackoffMax {
		r.probeBackoff = cl.opts.ProbeBackoffMax
	}
	r.nextProbe = time.Now().Add(r.probeBackoff) //magevet:ok probe-backoff schedule on a real network client
}

// resyncBatchPages bounds one mover batch: MaxBatchPages or
// whatever number of full pages fits MaxIO, whichever is smaller.
func (cl *Cluster) resyncBatchPages() int {
	n := int(int64(memnode.MaxIO) / cl.opts.PageBytes)
	if n > memnode.MaxBatchPages {
		n = memnode.MaxBatchPages
	}
	if n < 1 {
		n = 1
	}
	return n
}

// readmit brings a down-but-answering replica back: copy every page
// its shard owns from a current peer (registering regions the node
// lacks), settle writes that raced the copy, and flip it healthy under
// the drained topology lock.
func (cl *Cluster) readmit(sh *shard, r *replica) error {
	cl.topoMu.RLock()
	topo := cl.topo
	si := -1
	for i, s := range topo.shards {
		if s == sh {
			si = i
			break
		}
	}
	if si == -1 {
		// The shard left the topology while the replica was down.
		cl.topoMu.RUnlock()
		return nil
	}
	// Open the dirty log first, atomically with claiming the resync: a
	// user-driven ProbeNow can race the background prober's sweep, and
	// two overlapping resyncs of one replica would clobber each other's
	// dirty log. Opening it this early only means a few extra logged
	// keys, which the settle passes re-copy harmlessly.
	sh.mu.Lock()
	if r.resyncing || r.healthy {
		sh.mu.Unlock()
		cl.topoMu.RUnlock()
		return nil
	}
	r.resyncing = true
	r.dirty = make(map[uint64]struct{})
	sh.mu.Unlock()
	sh.resyncCount.Add(1)
	abort := func(err error) error {
		closeResync(sh, r)
		cl.topoMu.RUnlock()
		return err
	}
	m := cl.resyncMover(topo, si, r)
	if err := m.bulk(); err != nil {
		return abort(err)
	}
	// Settle rounds: re-copy pages written during the bulk copy. Each
	// round shrinks the window; the final round runs under the topology
	// write lock with all ops drained, so nothing can race it.
	for round := 0; ; round++ {
		final := round >= 3
		if final {
			cl.topoMu.RUnlock()
			cl.topoMu.Lock()
			if cl.topo != topo || cl.migOn.Load() {
				// The topology changed while we waited for the write lock,
				// so the shard may no longer own the pages copied; or a
				// migration is mid-copy, and it chose its targets while this
				// replica was down, so the pages it moves here would never
				// reach it. Stay down and let the next probe resync against
				// whatever topology is current then.
				cl.topoMu.Unlock()
				closeResync(sh, r)
				return nil
			}
		}
		dirty := swapDirty(sh, r)
		if len(dirty) == 0 && !final {
			round = 2 // nothing raced this round; jump to the final pass
			continue
		}
		err := m.settle(dirty)
		if !final {
			if err != nil {
				return abort(err)
			}
			continue
		}
		// Final pass, ops drained. Flip healthy under the same lock.
		if err != nil {
			closeResync(sh, r)
			cl.topoMu.Unlock()
			return err
		}
		cl.admitReplica(sh, r)
		cl.topoMu.Unlock()
		return nil
	}
}

// closeResync clears the resync-in-progress state on r, leaving it
// down; a later probe may start the resync over from scratch.
func closeResync(sh *shard, r *replica) {
	sh.mu.Lock()
	r.resyncing = false
	r.dirty = nil
	sh.mu.Unlock()
	sh.resyncCount.Add(-1)
}

// swapDirty takes the current dirty-page log, installing a fresh one
// so writes racing the copy of the taken set keep being recorded.
func swapDirty(sh *shard, r *replica) map[uint64]struct{} {
	sh.mu.Lock()
	dirty := r.dirty
	r.dirty = make(map[uint64]struct{})
	sh.mu.Unlock()
	return dirty
}

// admitReplica flips a fully-resynced replica healthy and rolls its
// degraded time into the counters. Caller holds the topology write
// lock with all ops drained, so the flip cannot race a missed write.
func (cl *Cluster) admitReplica(sh *shard, r *replica) {
	sh.mu.Lock()
	r.resyncing = false
	r.dirty = nil
	r.healthy = true
	r.probeBackoff = 0
	r.nextProbe = time.Time{}
	if !r.downSince.IsZero() {
		r.degradedNs += time.Since(r.downSince).Nanoseconds() //magevet:ok degraded-time accounting on a real network client
		r.downSince = time.Time{}
	}
	r.resyncs++
	sh.mu.Unlock()
	sh.resyncCount.Add(-1)
	cl.stats.readmissions.Add(1)
}
