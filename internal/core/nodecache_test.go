package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"synergy/internal/integrity"
)

func TestNodeCacheStopsWalk(t *testing.T) {
	a, m := newMemory(t, 512) // two tree levels
	a.Write(100, fillLine(1))
	before := m.Stats().NodeCacheStops
	mustRead(t, a, 100) // the write cached the path
	if m.Stats().NodeCacheStops <= before {
		t.Fatal("read did not stop at the on-chip node cache")
	}
}

func TestNodeCacheMasksMemoryCorruptionUntilFlush(t *testing.T) {
	a, m := newMemory(t, 64)
	want := fillLine(2)
	a.Write(12, want)
	ctrAddr, slot := m.Layout().CounterAddr(12)
	m.Module().InjectTransient(ctrAddr, slot, [8]byte{0xFF})
	// Warm cache: the corrupted memory copy is never consulted.
	got, info := mustRead(t, a, 12)
	if !bytes.Equal(got, want) || info.Corrected {
		t.Fatalf("cached read: corrected=%v", info.Corrected)
	}
	// After a flush the walk sees (and repairs) the corruption.
	m.FlushNodeCache()
	got, info = mustRead(t, a, 12)
	if !bytes.Equal(got, want) || !info.Corrected {
		t.Fatalf("flushed read: corrected=%v", info.Corrected)
	}
}

func TestNodeCacheWritesRefreshCachedCounters(t *testing.T) {
	// Reads served from the cache must observe the counters bumped by
	// interleaved writes (stale cached counters would garble data).
	a, _ := newMemory(t, 64)
	for k := 0; k < 20; k++ {
		want := fillLine(byte(k))
		if err := a.Write(7, want); err != nil {
			t.Fatal(err)
		}
		got, _ := mustRead(t, a, 7)
		if !bytes.Equal(got, want) {
			t.Fatalf("iteration %d: stale counter served from cache", k)
		}
	}
}

func TestNodeCacheClockEviction(t *testing.T) {
	c := newNodeCache(2, 0, 4)
	c.insert(1, -1, 1, integrity.Node{}, integrity.SplitNode{})
	c.insert(2, -1, 2, integrity.Node{}, integrity.SplitNode{})
	// A full sweep clears the insert-time access bits; touch 1 after so
	// only it holds a second chance when the next victim is chosen.
	v, ok := c.victim()
	if !ok {
		t.Fatal("victim on populated cache returned !ok")
	}
	c.get(1) // re-arm 1's access bit
	if v.addr == 1 {
		// The first sweep's victim depends on hand position; re-pick
		// after the touch so the assertion below is deterministic.
		v, ok = c.victim()
		if !ok {
			t.Fatal("victim returned !ok")
		}
	}
	c.insert(3, -1, 3, integrity.Node{}, integrity.SplitNode{})
	// insert never evicts; the owner trims. Emulate one trim step.
	if c.over() != 1 {
		t.Fatalf("over = %d, want 1", c.over())
	}
	v, ok = c.victim()
	if !ok || v.addr == 1 {
		t.Fatalf("victim = %d/%v, want the unreferenced entry, not touched entry 1", v.addr, ok)
	}
	c.remove(v)
	if _, ok := c.get(v.addr); ok {
		t.Fatal("victim not evicted")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("recently touched entry 1 evicted")
	}
	if c.size() != 2 {
		t.Fatalf("size = %d", c.size())
	}
}

// TestNodeCacheSecondChanceIgnoresDirtiness pins the policy: a set
// access bit buys one pass of the hand whether the entry is dirty or
// clean, and an unreferenced dirty entry is not skipped in favour of a
// clean one further round the ring.
func TestNodeCacheSecondChanceIgnoresDirtiness(t *testing.T) {
	for _, dirtyHot := range []bool{false, true} {
		c := newNodeCache(3, 0, 4)
		var n [3]*cachedNode
		for k := range n {
			n[k] = c.insert(uint64(k+1), -1, uint64(k+1), integrity.Node{}, integrity.SplitNode{})
			n[k].accessed.Store(0)
		}
		// Ring order from the hand: 1, 2, 3. Entry 1 is referenced; of
		// the unreferenced two, the nearer one is dirty.
		c.get(1)
		if dirtyHot {
			c.markDirty(n[0])
		}
		c.markDirty(n[1])
		v, ok := c.victim()
		if !ok || v != n[1] {
			t.Fatalf("dirtyHot=%v: victim = %d, want unreferenced dirty entry 2 (not clean entry 3)", dirtyHot, v.addr)
		}
		if n[0].accessed.Load() != 0 {
			t.Fatalf("dirtyHot=%v: the hand passed entry 1 without consuming its access bit", dirtyHot)
		}
		// Its second chance spent, entry 1 goes next time round.
		c.victim() // entry 3
		if v, _ := c.victim(); v != n[0] {
			t.Fatalf("dirtyHot=%v: victim = %d, want entry 1 after its second chance", dirtyHot, v.addr)
		}
	}
}

// TestNodeCacheDirtyVictimReturnedDirty pins the caller's half of the
// contract: victim hands a dirty entry back untouched — still dirty,
// still counted, still in the cache — and it is the caller that seals,
// writes back and marks it clean before remove (which panics otherwise,
// see TestNodeCacheRemoveDirtyPanics).
func TestNodeCacheDirtyVictimReturnedDirty(t *testing.T) {
	c := newNodeCache(2, 0, 3)
	a := c.insert(1, -1, 1, integrity.Node{}, integrity.SplitNode{})
	b := c.insert(2, -1, 2, integrity.Node{}, integrity.SplitNode{})
	c.markDirty(a)
	c.markDirty(b)
	v, ok := c.victim()
	if !ok || !v.dirty || c.dirty != 2 || c.size() != 2 {
		t.Fatalf("victim = %v/%v dirty=%d size=%d, want a dirty entry left in place", v, ok, c.dirty, c.size())
	}
	if got := c.appendDirty(nil); len(got) != 2 {
		t.Fatalf("appendDirty = %d entries, want 2", len(got))
	}
	c.markClean(v)
	c.remove(v)
	if c.dirty != 1 || c.size() != 1 {
		t.Fatalf("after flush+remove: dirty=%d size=%d, want 1/1", c.dirty, c.size())
	}
	c.markClean(a)
	c.markClean(b)
	if got := c.appendDirty(nil); got != nil {
		t.Fatalf("appendDirty on a clean cache = %v, want nil", got)
	}
}

// TestNodeCacheEvictionCostBound pins the cost of eviction, not its
// preference: on an all-dirty cache at capacity, insert → victim →
// clean → remove cycles spend at most two hand steps per eviction (one
// to consume the bit the evicted entry's insert set, one to take it)
// plus one revolution of slack. A sweep that goes looking for a clean
// victim takes 2×capacity+1 steps per eviction here. It counts steps,
// not time, so it cannot flake.
func TestNodeCacheEvictionCostBound(t *testing.T) {
	const capacity, evictions = 512, 10000
	c := newNodeCache(capacity, 1, capacity+evictions+1)
	addr := uint64(0)
	fill := func() {
		addr++
		c.markDirty(c.insert(addr, -1, addr, integrity.Node{}, integrity.SplitNode{}))
	}
	for c.size() < capacity {
		fill()
	}
	for k := 0; k < evictions; k++ {
		fill()
		v, ok := c.victim()
		if !ok || !v.dirty {
			t.Fatalf("eviction %d: victim = %v/%v, want a dirty entry", k, v, ok)
		}
		c.markClean(v)
		c.remove(v)
	}
	if c.size() != capacity || c.dirty != capacity {
		t.Fatalf("size=%d dirty=%d, want %d/%d", c.size(), c.dirty, capacity, capacity)
	}
	if bound := uint64(2*evictions + capacity); c.steps > bound {
		t.Fatalf("%d evictions took %d hand steps, want ≤ %d", evictions, c.steps, bound)
	}
}

// TestNodeCachePeekSetsAccessBitOnly pins what makes get legal under
// the shared lock: a lookup, hit or miss, writes nothing but the
// entry's access bit.
func TestNodeCachePeekSetsAccessBitOnly(t *testing.T) {
	c := newNodeCache(2, 0, 100)
	n := c.insert(1, -1, 1, integrity.Node{}, integrity.SplitNode{})
	c.insert(2, 0, 0, integrity.Node{}, integrity.SplitNode{})
	n.accessed.Store(0)
	type shape struct {
		hand, free, prev, next *cachedNode
		used, dirty            int
		steps                  uint64
		nodeDirty              bool
	}
	snap := func() shape { return shape{c.hand, c.free, n.prev, n.next, c.used, c.dirty, c.steps, n.dirty} }
	before := snap()
	if _, ok := c.get(1); !ok {
		t.Fatal("get missed a cached entry")
	}
	if n.accessed.Load() == 0 {
		t.Fatal("get did not set the CLOCK access bit")
	}
	if _, ok := c.get(99); ok {
		t.Fatal("get invented an entry")
	}
	if _, ok := c.get(100); ok {
		t.Fatal("get past the end of the table hit")
	}
	if after := snap(); after != before {
		t.Fatalf("get changed cache state: %+v -> %+v", before, after)
	}
}

func TestNodeCacheInsertRefreshKeepsDirty(t *testing.T) {
	c := newNodeCache(4, 0, 8)
	n := c.insert(7, 0, 7, integrity.Node{}, integrity.SplitNode{})
	c.markDirty(n)
	// A path re-load re-inserts the same address; the pending writeback
	// must not be forgotten.
	n2 := c.insert(7, 0, 7, integrity.Node{}, integrity.SplitNode{})
	if n2 != n || !n2.dirty || c.dirty != 1 {
		t.Fatalf("refresh lost dirty state: same=%v dirty=%v count=%d", n2 == n, n2.dirty, c.dirty)
	}
}

func TestNodeCacheRemoveDirtyPanics(t *testing.T) {
	c := newNodeCache(2, 0, 2)
	n := c.insert(1, -1, 1, integrity.Node{}, integrity.SplitNode{})
	c.markDirty(n)
	defer func() {
		if recover() == nil {
			t.Fatal("removing a dirty entry did not panic")
		}
	}()
	c.remove(n)
}

// modelTape returns n seeded (op, arg) pairs for FuzzNodeCacheModel.
func modelTape(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	tape := make([]byte, 2*n)
	rng.Read(tape)
	return tape
}

// FuzzNodeCacheModel drives the slot table with a tape of insert,
// refresh, get, markDirty, markClean, victim, remove and reset against
// a map kept only here, and after every step checks that the two agree
// on every address in and around the span, on size and the dirty count,
// and that the CLOCK ring links exactly the cached entries. `go test`
// runs the seeds; `go test -fuzz=FuzzNodeCacheModel` explores.
func FuzzNodeCacheModel(f *testing.F) {
	f.Add(modelTape(1, 64))
	f.Add(modelTape(2, 256))
	f.Add(modelTape(3, 1024))
	// Fill, dirty everything, sweep: victims of an all-dirty cache.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 3, 0, 3, 1, 3, 2, 3, 3, 5, 0, 5, 0, 6, 0, 6, 0, 7, 0, 0, 5})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const capacity, base, span = 8, 100, 32
		c := newNodeCache(capacity, base, base+span)
		model := map[uint64]*cachedNode{}
		dirty := map[uint64]bool{}
		// pick maps arg to a cached address (in address order), if any.
		pick := func(arg byte) (uint64, bool) {
			if len(model) == 0 {
				return 0, false
			}
			keys := make([]uint64, 0, len(model))
			for a := range model {
				keys = append(keys, a)
			}
			slices.Sort(keys)
			return keys[int(arg)%len(keys)], true
		}
		for step := 0; step+1 < len(tape); step += 2 {
			op, arg := tape[step]%8, tape[step+1]
			addr := base + uint64(arg)%span
			switch op {
			case 0, 1: // insert a new address, or refresh a cached one
				if op == 1 {
					if a, ok := pick(arg); ok {
						addr = a
					}
				}
				n := c.insert(addr, int(arg%4)-1, uint64(arg), integrity.Node{MAC: uint64(arg)}, integrity.SplitNode{})
				if old, ok := model[addr]; ok && n != old {
					t.Fatalf("step %d: refresh of %d returned a new entry", step, addr)
				}
				if n.addr != addr || n.node.MAC != uint64(arg) || n.dirty != dirty[addr] || n.accessed.Load() == 0 {
					t.Fatalf("step %d: insert(%d) = addr %d mac %d dirty %v accessed %d", step, addr, n.addr, n.node.MAC, n.dirty, n.accessed.Load())
				}
				model[addr] = n
			case 2: // get, possibly outside the span
				addr = base - 2 + uint64(arg)%(span+4)
				n, ok := c.get(addr)
				if want, in := model[addr]; ok != in || n != want {
					t.Fatalf("step %d: get(%d) = %p/%v, model %p/%v", step, addr, n, ok, want, in)
				}
			case 3, 4:
				a, ok := pick(arg)
				if !ok {
					continue
				}
				if op == 3 {
					c.markDirty(model[a])
					dirty[a] = true
				} else {
					c.markClean(model[a])
					delete(dirty, a)
				}
			case 5:
				before, size := c.steps, c.size()
				v, ok := c.victim()
				if ok != (len(model) > 0) || ok && model[v.addr] != v {
					t.Fatalf("step %d: victim = %v/%v with %d cached", step, v, ok, len(model))
				}
				if ok && c.steps-before > uint64(size+1) {
					t.Fatalf("step %d: victim took %d steps over %d entries", step, c.steps-before, size)
				}
			case 6: // remove, flushing first as the engine does
				a, ok := pick(arg)
				if !ok {
					continue
				}
				c.markClean(model[a])
				c.remove(model[a])
				delete(model, a)
				delete(dirty, a)
				if _, hit := c.get(a); hit {
					t.Fatalf("step %d: removed %d still hits", step, a)
				}
			case 7:
				c.reset()
				clear(model)
				clear(dirty)
			}
			checkNodeCacheModel(t, step, c, model, len(dirty))
		}
	})
}

// checkNodeCacheModel compares every slot (without touching access
// bits) and the ring against model, and the counters against it.
func checkNodeCacheModel(t *testing.T, step int, c *nodeCache, model map[uint64]*cachedNode, dirty int) {
	t.Helper()
	if c.size() != len(model) || c.dirty != dirty || c.over() != len(model)-c.cap {
		t.Fatalf("step %d: size %d dirty %d over %d, model %d/%d", step, c.size(), c.dirty, c.over(), len(model), dirty)
	}
	for off, n := range c.slots {
		if want := model[c.base+uint64(off)]; n != want {
			t.Fatalf("step %d: slot %d = %p, model %p", step, c.base+uint64(off), n, want)
		}
	}
	if got := len(c.appendDirty(nil)); got != dirty {
		t.Fatalf("step %d: appendDirty found %d entries, model %d", step, got, dirty)
	}
	ring := 0
	if n := c.hand; n != nil {
		for {
			if model[n.addr] != n || n.next.prev != n {
				t.Fatalf("step %d: ring holds %d (%p), model %p", step, n.addr, n, model[n.addr])
			}
			ring++
			if n = n.next; n == c.hand || ring > len(model) {
				break
			}
		}
	}
	if ring != len(model) {
		t.Fatalf("step %d: ring links %d entries, model %d", step, ring, len(model))
	}
}
