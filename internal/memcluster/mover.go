// The page mover: the one copy path behind resync and rebalancing.
//
// Both jobs copy pages from the current replicas of a source shard to
// target replicas, in two phases:
//
//   - bulk: every page the route selects, in every region, batched
//     into READV/WRITEV per (source shard, destination shard) pair. A
//     tail partial page goes as a one-descriptor batch of its own
//     length, so there is no single-page path.
//   - settle: regions registered since the bulk phase, in full, plus
//     the dirty set — keys written while the copy ran — resolved
//     against the live region table. Run under the topology write lock
//     the live table is complete: Register holds the read lock.
//
// Resync routes the pages one shard owns to the replica being
// re-admitted; migration routes the pages whose owner changes to every
// healthy replica of the new owner. Sources are only healthy replicas
// of the source shard, never the target, with no degraded tail: a
// source must be current, not merely alive, or a stale page becomes
// authoritative on its new holder. The write step never dirty-logs —
// the mover is the copy, not new data, and logging its own writes
// would leave the settle chasing its tail.
package memcluster

import (
	"errors"

	"mage/internal/memcluster/placement"
	"mage/internal/memnode"
)

// mover is one copy job.
type mover struct {
	cl *Cluster
	// from holds the source shards and to the destination shards; route
	// maps a page key to its source index in from and destination index
	// in to, with ok false when the page does not move.
	from, to *topology
	route    func(key uint64) (src, dst int, ok bool)
	// target is the single replica a resync fills; nil means every
	// healthy replica of the destination shard.
	target *replica
	// fresh replicas hold no region yet and receive every page their
	// shard owns, so each region is registered on them before its pages
	// are copied. A healthy replica of an existing shard is never
	// registered here: it would then serve zeros for the region's pages
	// that did not move.
	fresh []*replica
	// seen is the region table the copy has covered so far.
	seen map[uint64]*cregion
}

// resyncMover fills replica r of shard si with every page si owns under
// topo.
func (cl *Cluster) resyncMover(topo *topology, si int, r *replica) *mover {
	return &mover{
		cl: cl, from: topo, to: topo, target: r, fresh: []*replica{r},
		route: func(key uint64) (int, int, bool) {
			return si, si, placement.ShardOfIDs(key, topo.ids) == si
		},
	}
}

// migrationMover copies every page whose owner changes between oldTopo
// and newTopo. joined is the shard a join adds (nil for a leave); its
// replicas start empty.
func (cl *Cluster) migrationMover(oldTopo, newTopo *topology, joined *shard) *mover {
	m := &mover{
		cl: cl, from: oldTopo, to: newTopo,
		route: func(key uint64) (int, int, bool) {
			so := placement.ShardOfIDs(key, oldTopo.ids)
			sn := placement.ShardOfIDs(key, newTopo.ids)
			return so, sn, oldTopo.ids[so] != newTopo.ids[sn]
		},
	}
	if joined != nil {
		m.fresh = joined.replicas
	}
	return m
}

// bulk copies every routed page of every live region.
func (m *mover) bulk() error {
	m.seen = m.cl.snapshotRegions()
	for handle, reg := range m.seen { //magevet:ok regions copy independently; order cannot affect the result
		if err := m.copyRegion(handle, reg, nil); err != nil {
			return err
		}
	}
	return nil
}

// settle copies what changed since the bulk phase: regions registered
// since, in full, and the pages of the dirty keys.
func (m *mover) settle(dirty map[uint64]struct{}) error {
	pages := make(map[uint64][]int64)
	for key := range dirty { //magevet:ok grouping keys by region; each page is copied once whatever the order
		handle := key >> placement.KeyPageBits
		pages[handle] = append(pages[handle], int64(key&(1<<placement.KeyPageBits-1)))
	}
	for handle, reg := range m.cl.snapshotRegions() { //magevet:ok regions copy independently; order cannot affect the result
		if _, ok := m.seen[handle]; !ok {
			if err := m.copyRegion(handle, reg, nil); err != nil {
				return err
			}
			m.seen[handle] = reg
			continue
		}
		if ps := pages[handle]; len(ps) > 0 {
			if err := m.copyRegion(handle, reg, ps); err != nil {
				return err
			}
		}
	}
	return nil
}

// copyRegion registers reg on the fresh replicas and copies its routed
// pages — those listed, or every page when pages is nil — batched per
// (source, destination) shard pair.
func (m *mover) copyRegion(handle uint64, reg *cregion, pages []int64) error {
	for _, r := range m.fresh {
		if _, ok := reg.handle(r); ok {
			continue
		}
		h, err := r.c.Register(reg.size)
		if err != nil {
			return err
		}
		m.cl.regMu.Lock()
		reg.setHandle(r, h)
		m.cl.regMu.Unlock()
	}
	pb := m.cl.opts.PageBytes
	npages := (reg.size + pb - 1) / pb
	batchMax := m.cl.resyncBatchPages()
	type pair struct{ src, dst int }
	batches := make(map[pair][]int64)
	visit := func(p int64) error {
		if p >= npages {
			return nil
		}
		src, dst, ok := m.route(placement.Key(handle, uint64(p)))
		if !ok {
			return nil
		}
		off := p * pb
		if off > reg.size-pb { // tail partial page: a batch of its own length
			return m.move(reg, src, dst, []int64{off}, reg.size-off)
		}
		pr := pair{src, dst}
		batches[pr] = append(batches[pr], off)
		if len(batches[pr]) < batchMax {
			return nil
		}
		offs := batches[pr]
		delete(batches, pr)
		return m.move(reg, src, dst, offs, pb)
	}
	if pages == nil {
		for p := int64(0); p < npages; p++ {
			if err := visit(p); err != nil {
				return err
			}
		}
	}
	for _, p := range pages {
		if err := visit(p); err != nil {
			return err
		}
	}
	for pr, offs := range batches { //magevet:ok disjoint page sets per shard pair; copy order cannot matter
		if err := m.move(reg, pr.src, pr.dst, offs, pb); err != nil {
			return err
		}
	}
	return nil
}

// move copies one batch — offs, each length bytes — from source shard
// src to the targets in destination shard dst.
func (m *mover) move(reg *cregion, src, dst int, offs []int64, length int64) error {
	bodies, err := m.read(reg, src, offs, length)
	if err != nil {
		return err
	}
	err = m.write(reg, dst, offs, bodies)
	for _, b := range bodies {
		memnode.PutBuf(b)
	}
	if err != nil {
		return err
	}
	m.cl.stats.rebalancedPages.Add(uint64(len(offs)))
	return nil
}

// read is the mover's source ladder: the healthy replicas of source
// shard src, never the target, and no degraded tail.
func (m *mover) read(reg *cregion, src int, offs []int64, length int64) ([][]byte, error) {
	sh := m.from.shards[src]
	reps, _, healthy := snapshotReplicas(sh)
	var lastErr error
	for i, r := range reps {
		if !healthy[i] || r == m.target {
			continue
		}
		h, ok := reg.handle(r)
		if !ok {
			continue
		}
		bodies, err := r.c.ReadV(h, offs, length)
		if err == nil {
			return bodies, nil
		}
		if memnode.IsTerminal(err) {
			return nil, err
		}
		m.cl.markDown(sh, r, true)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("no current source replica")
	}
	return nil, errAllReplicasFailed(src, lastErr)
}

// write is the mover's write step: one batch to every target replica of
// destination shard dst that holds the region. One ack is enough, as
// for a client write; unlike one, it never dirty-logs.
func (m *mover) write(reg *cregion, dst int, offs []int64, bodies [][]byte) error {
	sh := m.to.shards[dst]
	var targets []*replica
	if m.target != nil {
		targets = []*replica{m.target}
	} else {
		reps, _, healthy := snapshotReplicas(sh)
		for i, r := range reps {
			if healthy[i] {
				targets = append(targets, r)
			}
		}
	}
	acks := 0
	var lastErr error
	for _, r := range targets {
		h, ok := reg.handle(r)
		if !ok {
			continue
		}
		if err := r.c.WriteV(h, offs, bodies); err != nil {
			if memnode.IsTerminal(err) {
				return err
			}
			if r != m.target { // a resync target is down already
				m.cl.markDown(sh, r, true)
			}
			lastErr = err
			continue
		}
		acks++
	}
	if acks == 0 {
		if lastErr == nil {
			lastErr = errors.New("no target replica holds the region")
		}
		return errAllReplicasFailed(dst, lastErr)
	}
	return nil
}
