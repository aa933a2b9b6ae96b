package core

// entry is the cache's bookkeeping for one object, stored by value in
// the ID-indexed table (Cache.ents): its access statistics for every
// object requested, its prefix and priority while cached. bytes > 0
// marks a cached object; the zero value is "never requested". Every
// access reads and writes one entry, so it holds nothing an access
// does not need: 40 bytes, pinned by TestEntryStays40Bytes.
type entry struct {
	bytes   int64   // cached prefix size; 0 = not cached
	utility float64 // current priority key
	freq    int64   // requests observed so far (F_i)
	last    float64 // time of the most recent request; the heap's tiebreaker, older evicted first
	heapIdx int32   // position in Cache.heap while cached
}

// The eviction queue is a specialized min-heap of object IDs ordered by
// (utility, last): the cheapest-to-evict entry sits at the root,
// and maintenance is O(log n) per access, matching the cost stated in
// Section 2.4. Compared with container/heap this stores concrete int32
// IDs — no `any` boxing, no interface dispatch, no allocation per
// push/pop — and compares through the dense entry table.

// entryLess reports whether entry a evicts before entry b.
func (c *Cache) entryLess(a, b int32) bool {
	ea, eb := &c.ents[a], &c.ents[b]
	if ea.utility != eb.utility {
		return ea.utility < eb.utility
	}
	return ea.last < eb.last
}

// heapSwap exchanges heap slots i and j, maintaining back-pointers.
func (c *Cache) heapSwap(i, j int32) {
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.ents[c.heap[i]].heapIdx = i
	c.ents[c.heap[j]].heapIdx = j
}

// heapUp sifts the entry at heap index i toward the root.
func (c *Cache) heapUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.entryLess(c.heap[i], c.heap[parent]) {
			break
		}
		c.heapSwap(i, parent)
		i = parent
	}
}

// heapDown sifts the entry at heap index i toward the leaves, returning
// whether it moved.
func (c *Cache) heapDown(i int32) bool {
	start := i
	n := int32(len(c.heap))
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && c.entryLess(c.heap[right], c.heap[left]) {
			least = right
		}
		if !c.entryLess(c.heap[least], c.heap[i]) {
			break
		}
		c.heapSwap(i, least)
		i = least
	}
	return i > start
}

// heapPush appends object id to the heap and restores order.
func (c *Cache) heapPush(id int) {
	i := int32(len(c.heap))
	c.ents[id].heapIdx = i
	c.heap = append(c.heap, int32(id))
	c.heapUp(i)
}

// heapFix restores order after the entry at heap index i changed keys.
func (c *Cache) heapFix(i int32) {
	if !c.heapDown(i) {
		c.heapUp(i)
	}
}

// heapRemove deletes the entry at heap index i.
func (c *Cache) heapRemove(i int32) {
	n := int32(len(c.heap)) - 1
	id := c.heap[i]
	if i != n {
		c.heapSwap(i, n)
	}
	c.heap = c.heap[:n]
	c.ents[id].heapIdx = -1
	if i != n {
		c.heapFix(i)
	}
}
