package core

import (
	"sync/atomic"

	"synergy/internal/integrity"
)

// This file implements the on-chip metadata cache of the SGX-class
// design (paper §II-A5, Fig. 7, Table II): recently verified
// counter/tree lines are kept inside the trust boundary, so the upward
// traversal stops at the first cached entry — "assumed to be free from
// errors since it is found on-chip" — instead of walking to the root
// on every access.
//
// Entries are cached only after verification (or after this engine
// itself wrote them), so a cached node is trusted by construction.
//
// A write bumps path counters in the cached copies and marks them
// dirty; sealing (the per-level MACs) and the module writes happen when
// the entry is flushed — on eviction, on an explicit Flush, or, with
// Config.MetadataCache ≤ 0, before the write returns. Counter values
// advance eagerly, so a flushed device holds the same bytes whenever
// the flushes happened. Dirty entries are authoritative: the in-memory
// copy of a dirty line is stale until written back, and any stale copy
// fails its MAC check against the (already advanced) parent counter,
// which is what preserves replay protection across the deferral window.
//
// # Lookup
//
// The cache is fully associative — any metadata line can occupy any of
// its cap entries — but a lookup is not a search: every address the
// engine can ask for (counter lines, parity lines, tree levels) lies in
// one contiguous span of the rank's module, [counterBase, TotalLines),
// so a slot table with one pointer per line in that span, indexed by
// line offset, finds an entry with one bounds check and one load, where
// a hardware cache would decode the same address bits. The table costs
// 8 bytes per metadata line (under 3% of the module it indexes) and
// replaces a hash probe per tree level on every access.
//
// # Replacement policy
//
// Recency is plain CLOCK (second chance), not LRU: each entry carries
// an atomic access bit that hits set and the eviction hand clears. The
// choice is what makes the shared-lock read fast path legal — a cache
// hit under Memory's RLock touches nothing but its entry's own atomic
// bit, so concurrent readers never contend on list pointers the way a
// move-to-front LRU would force them to. Structural mutation (insert,
// remove, reset, the hand sweep) happens only under the owning
// Memory's exclusive lock.
//
// The hand takes the first unreferenced entry it meets, dirty or clean
// (the owner flushes a dirty victim before removing it), so every hand
// step either evicts or consumes a reference bit some hit paid for:
// eviction is amortised O(1). It deliberately does not sweep on for a
// clean victim: under write-back churn that evicts the clean entries
// first, the cache converges to all-dirty, and every eviction then
// walks the whole ring and wipes every reference bit on the way, which
// turns CLOCK into an O(capacity) FIFO (DESIGN.md §9).
//
// The cache has no lock of its own: insert/remove/reset/victim require
// the owning Memory's exclusive lock. get is safe under the shared
// lock as well: the slot table and the ring are written only under the
// exclusive lock, so shared-lock readers see them frozen, and the one
// thing get writes is the entry's own atomic access bit.

// nodeCache is a fully-associative CLOCK cache of trusted path entries
// with dirty tracking. slots maps a line's offset from base to its
// entry (nil when uncached); the entries also form a circular ring, and
// hand points at the next eviction candidate.
type nodeCache struct {
	cap   int
	base  uint64        // line address of slots[0]
	slots []*cachedNode // one per line in [base, base+len(slots))
	used  int           // occupied slots
	hand  *cachedNode   // next sweep position; nil iff the cache is empty

	dirty int         // number of dirty entries
	free  *cachedNode // evicted entries recycled by insert (linked via next)
	steps uint64      // hand steps taken by victim; read only by the cost test
}

type cachedNode struct {
	addr  uint64
	level int    // -1 for encryption-counter (leaf) lines
	index uint64 // node index within its level
	node  integrity.Node
	split integrity.SplitNode // leaf only, when split counters are on
	// dirty marks an entry whose counters have advanced past the
	// stored copy: it must be sealed and written back before it can
	// leave the trust boundary.
	dirty bool

	// accessed is the CLOCK reference bit: set (atomically — readers
	// under the shared lock race each other here) on every hit, cleared
	// by the eviction hand. It orders nothing; it only steers victim
	// selection, so the relaxed read-check-store below is fine.
	accessed atomic.Uint32

	prev, next *cachedNode // circular ring, in insertion order behind the hand
}

// touch sets the access bit. Safe under the shared lock: the bit is
// this entry's own atomic word, and the load-before-store keeps a hot
// entry's cacheline in the shared state for concurrent readers.
func (n *cachedNode) touch() {
	if n.accessed.Load() == 0 {
		n.accessed.Store(1)
	}
}

// DefaultMetadataCache is the metadata cache capacity in cachelines
// when Config.MetadataCache ≤ 0. 32 lines is deliberately small — the
// functional engine cares about hit/stop semantics, not hit rate; the
// performance simulator models the 128 KB cache of Table III, and a
// write-back cache (Config.MetadataCache > 0) is sized by the caller.
const DefaultMetadataCache = 32

// newNodeCache returns an empty cache of the given capacity for line
// addresses in [lo, hi).
func newNodeCache(capacity int, lo, hi uint64) *nodeCache {
	return &nodeCache{cap: capacity, base: lo, slots: make([]*cachedNode, hi-lo)}
}

// get returns the trusted entry for addr, if cached, setting its
// access bit. An address outside the table's span is a miss. Safe
// under the owning Memory's shared lock (see the file comment), so the
// optimistic read paths consult the cache concurrently.
func (c *nodeCache) get(addr uint64) (*cachedNode, bool) {
	if off := addr - c.base; off < uint64(len(c.slots)) {
		if n := c.slots[off]; n != nil {
			n.touch()
			return n, true
		}
	}
	return nil, false
}

// insert adds or refreshes a trusted entry. The engine inserts only
// the levels it found missing; a refresh preserves the entry's dirty
// flag all the same — it must never lose a pending writeback — and
// markDirty is the only way an entry becomes dirty. insert never
// evicts — the owning Memory trims after its operation completes, so
// mid-operation inserts (ancestor loads during a flush) can
// transiently overflow cap. New entries join
// the ring just behind the hand with their access bit set: a full
// sweep passes them last, and the second chance keeps a just-inserted
// path from being its own trim's first victim.
func (c *nodeCache) insert(addr uint64, level int, index uint64, node integrity.Node, split integrity.SplitNode) *cachedNode {
	slot := &c.slots[addr-c.base]
	if old := *slot; old != nil {
		old.node, old.split = node, split
		old.touch()
		return old
	}
	// Recycle an evicted entry when one is free: a churning workload
	// (working set beyond cap) would otherwise allocate a node per
	// fill, and the write hot path holds a 0 allocs/op contract.
	n := c.free
	if n != nil {
		c.free = n.next
		n.addr, n.level, n.index = addr, level, index
		n.node, n.split = node, split
		n.dirty = false
		n.prev, n.next = nil, nil
	} else {
		n = &cachedNode{addr: addr, level: level, index: index, node: node, split: split}
	}
	n.accessed.Store(1)
	*slot = n
	c.used++
	c.link(n)
	return n
}

// link splices n into the ring just behind the hand.
func (c *nodeCache) link(n *cachedNode) {
	if c.hand == nil {
		n.prev, n.next = n, n
		c.hand = n
		return
	}
	tail := c.hand.prev
	tail.next, n.prev = n, tail
	n.next, c.hand.prev = c.hand, n
}

// markDirty flags an entry as ahead of its stored copy.
func (c *nodeCache) markDirty(n *cachedNode) {
	if !n.dirty {
		n.dirty = true
		c.dirty++
	}
}

// markClean clears the dirty flag after a seal + writeback.
func (c *nodeCache) markClean(n *cachedNode) {
	if n.dirty {
		n.dirty = false
		c.dirty--
	}
}

// victim advances the CLOCK hand to the next eviction candidate: an
// entry whose access bit is set gets its second chance (bit cleared,
// hand moves on) and the first entry whose bit is clear is returned,
// dirty or clean — the caller must flush a dirty victim before remove.
// Hits cannot set bits while the exclusive lock is held, so after one
// revolution every bit is clear: a call takes at most size()+1 steps,
// and each step beyond the last spends a bit some earlier hit set. ok
// is false on an empty cache. Requires the owning Memory's exclusive
// lock.
func (c *nodeCache) victim() (*cachedNode, bool) {
	v := c.hand
	if v == nil {
		return nil, false
	}
	for v.accessed.Load() != 0 {
		v.accessed.Store(0) // second chance
		v = v.next
		c.steps++
	}
	c.steps++
	c.hand = v.next
	return v, true
}

// remove drops an entry from the cache and parks it on the free list
// for insert to recycle. The entry must be clean: a dirty entry's
// state would be silently lost. No pointer to a removed entry may be
// retained across the exclusive-lock section that removed it.
func (c *nodeCache) remove(n *cachedNode) {
	if n.dirty {
		panic("core: removing dirty metadata cache entry")
	}
	c.slots[n.addr-c.base] = nil
	c.used--
	if n.next == n {
		c.hand = nil
	} else {
		if c.hand == n {
			c.hand = n.next
		}
		n.prev.next = n.next
		n.next.prev = n.prev
	}
	n.prev, n.next = nil, c.free
	c.free = n
}

// appendDirty appends every dirty entry (in ring order) to buf.
func (c *nodeCache) appendDirty(buf []*cachedNode) []*cachedNode {
	if c.dirty == 0 {
		return buf
	}
	n := c.hand
	for {
		if n.dirty {
			buf = append(buf, n)
		}
		n = n.next
		if n == c.hand {
			return buf
		}
	}
}

// reset empties the cache, dirty entries included: the caller has
// either flushed them or is discarding the state they belong to.
func (c *nodeCache) reset() {
	clear(c.slots)
	c.hand, c.free, c.used, c.dirty = nil, nil, 0, 0
}

// size reports occupancy.
func (c *nodeCache) size() int { return c.used }

// over reports how many entries exceed capacity.
func (c *nodeCache) over() int { return c.used - c.cap }
