// Shard join/leave with bounded, deterministic rebalancing.
//
// Rendezvous hashing over stable shard IDs means a topology change
// moves exactly the keys whose winning ID changed: adding a shard
// moves only the keys the newcomer wins (about 1/(N+1) of them), and
// removing one moves only the keys it owned. AddShard/RemoveShard
// copy that moved set with the page mover (mover.go) and swap in the
// new topology under the cluster's op/topology barrier.
//
// Writes racing the copy are caught the same way resync catches them:
// logDirty records every completed write whose key changes owner
// between the old and new ID sets, and the final settle pass re-copies
// that set under the topology write lock with all ops drained.
package memcluster

import (
	"errors"
	"fmt"

	"mage/internal/memnode"
)

// migration is one live topology change: the old and new stable-ID
// sets (what logDirty compares) and the keys written mid-copy whose
// owner changes between them.
type migration struct {
	oldIDs []uint64
	newIDs []uint64
	dirty  map[uint64]struct{}
}

// beginMigration installs the migration record; the write path starts
// logging moved-key dirt the moment migOn flips.
func (cl *Cluster) beginMigration(oldIDs, newIDs []uint64) error {
	cl.migMu.Lock()
	defer cl.migMu.Unlock()
	if cl.mig != nil {
		return errors.New("memcluster: a rebalance is already running")
	}
	cl.mig = &migration{oldIDs: oldIDs, newIDs: newIDs, dirty: make(map[uint64]struct{})}
	cl.migOn.Store(true)
	return nil
}

// endMigration clears the record and returns the accumulated dirty
// set. Caller holds topoMu exclusively when draining for the final
// settle.
func (cl *Cluster) endMigration() map[uint64]struct{} {
	cl.migMu.Lock()
	defer cl.migMu.Unlock()
	m := cl.mig
	cl.mig = nil
	cl.migOn.Store(false)
	if m == nil {
		return nil
	}
	return m.dirty
}

// AddShard grows the cluster by one shard served by addrs, migrating
// the pages the new shard wins under rendezvous hashing. Every new
// replica must be reachable — a join starts whole or not at all.
// Reads and writes keep flowing during the copy; the topology swap
// waits for in-flight ops and costs one brief write-lock pause.
func (cl *Cluster) AddShard(addrs []string) error {
	if err := cl.checkClosed(); err != nil {
		return err
	}
	if len(addrs) == 0 {
		return errors.New("memcluster: AddShard needs at least one replica address")
	}
	newSh := &shard{}
	for _, addr := range addrs {
		c, err := memnode.DialOptions(addr, cl.opts.Node)
		if err != nil {
			_ = closeShard(newSh)
			return fmt.Errorf("memcluster: AddShard: dial %s: %w", addr, err)
		}
		newSh.replicas = append(newSh.replicas, &replica{addr: addr, c: c, healthy: true})
	}
	// Allocate the stable ID and build the candidate topology under the
	// write lock (nextID is barrier-guarded), then release: the copy
	// runs against the still-current old topology.
	cl.topoMu.Lock()
	oldTopo := cl.topo
	newSh.id = cl.nextID
	cl.nextID++
	newTopo := &topology{
		shards: append(append([]*shard(nil), oldTopo.shards...), newSh),
		ids:    append(append([]uint64(nil), oldTopo.ids...), newSh.id),
	}
	if err := cl.beginMigration(oldTopo.ids, newTopo.ids); err != nil {
		cl.topoMu.Unlock()
		_ = closeShard(newSh)
		return err
	}
	cl.topoMu.Unlock()

	if err := cl.migrate(oldTopo, newTopo, cl.migrationMover(oldTopo, newTopo, newSh)); err != nil {
		_ = closeShard(newSh)
		return err
	}
	return nil
}

// RemoveShard drains shard idx out of the cluster: its pages migrate
// to their new rendezvous owners, the topology shrinks, and the
// removed shard's clients close. The last shard cannot be removed.
func (cl *Cluster) RemoveShard(idx int) error {
	if err := cl.checkClosed(); err != nil {
		return err
	}
	cl.topoMu.Lock()
	oldTopo := cl.topo
	if idx < 0 || idx >= len(oldTopo.shards) {
		cl.topoMu.Unlock()
		return fmt.Errorf("memcluster: RemoveShard: no shard %d", idx)
	}
	if len(oldTopo.shards) == 1 {
		cl.topoMu.Unlock()
		return errors.New("memcluster: cannot remove the last shard")
	}
	removed := oldTopo.shards[idx]
	newTopo := &topology{}
	for i, sh := range oldTopo.shards {
		if i == idx {
			continue
		}
		newTopo.shards = append(newTopo.shards, sh)
		newTopo.ids = append(newTopo.ids, oldTopo.ids[i])
	}
	if err := cl.beginMigration(oldTopo.ids, newTopo.ids); err != nil {
		cl.topoMu.Unlock()
		return err
	}
	cl.topoMu.Unlock()

	if err := cl.migrate(oldTopo, newTopo, cl.migrationMover(oldTopo, newTopo, nil)); err != nil {
		return err
	}
	return closeShard(removed)
}

// migrate runs a migration's bulk copy under the topology read lock, so
// ops keep flowing, then clears the migration record, settles the
// writes that raced the copy and swaps in newTopo under the drained
// write lock.
func (cl *Cluster) migrate(oldTopo, newTopo *topology, m *mover) error {
	cl.topoMu.RLock()
	err := m.bulk()
	cl.topoMu.RUnlock()
	cl.topoMu.Lock()
	defer cl.topoMu.Unlock()
	dirty := cl.endMigration()
	if err != nil {
		return err
	}
	if cl.topo != oldTopo {
		return errors.New("memcluster: topology changed during rebalance")
	}
	if err := m.settle(dirty); err != nil {
		return err
	}
	cl.topo = newTopo
	return nil
}

// snapshotRegions copies the region table out from under regMu.
func (cl *Cluster) snapshotRegions() map[uint64]*cregion {
	cl.regMu.Lock()
	defer cl.regMu.Unlock()
	regs := make(map[uint64]*cregion, len(cl.regions))
	for h, reg := range cl.regions { //magevet:ok snapshot clone of the region table; order cannot affect the result
		regs[h] = reg
	}
	return regs
}
