package serve

import (
	"embench/internal/prompt"
)

// CacheIdentity selects how two prompt prefixes are decided to be "the
// same" for KV reuse.
type CacheIdentity string

const (
	// IdentityShape keys prefixes by (section name, token count) chains —
	// the suite's original model: fixed sections with equal names and sizes
	// hold the same content (the shared system/task preamble every agent of
	// a workload sends), while histories that have diverged change size and
	// break the chain. It falsely hits prompts that merely have the same
	// shape, and cannot re-share diverged-then-reconverged histories whose
	// sizes drifted.
	IdentityShape CacheIdentity = "shape"
	// IdentityContent keys prefixes by chained content digests
	// (prompt.Section.Digest): sections with text are identified by what
	// they actually say, so same-shape-different-content prompts no longer
	// falsely hit and histories that reconverge to identical content
	// re-share their prefix. Token-count-only sections digest to their
	// (name, size), making the two identities agree exactly on synthetic
	// workloads.
	IdentityContent CacheIdentity = "content"
)

// prefixCache models KV-cache reuse across requests that share a prompt
// prefix. Prompts are section sequences (system preamble, task description,
// memory, dialogue, observation — see internal/prompt); two prompts share a
// cache entry exactly when their leading sections match under the cache's
// identity model (see CacheIdentity).
//
// Entries form a tree: each resident prefix entry owns its last section's
// tokens and points back to its parent prefix, so the live token footprint
// of the cache is the sum of entry sizes — the KV memory a real serving
// stack would pin. Capacity is enforced on that footprint (capTokens) and,
// for the deprecated entry-count model, on the entry count (capEntries).
//
// The cache is a deterministic LRU over chained-FNV prefix keys: every
// lookup touches all prefixes of the prompt, and eviction removes the
// least-recently-touched CHAIN — evicting a prefix cascades to its resident
// extensions, so no suffix entry ever outlives (or hides capacity behind)
// an evicted parent.
//
// The layout holds no pointers: index maps each resident key to a slot of
// the slots arena, freed slots are recycled through a free list, and the
// LRU order and each entry's children are intrusive lists of slot numbers.
// Touching, inserting and evicting are O(1) per entry and allocate nothing
// once the arena and index have grown to the working set, and the garbage
// collector has nothing to scan in either.
type prefixCache struct {
	capEntries int // entry-count budget (deprecated model); 0 = unbounded
	capTokens  int // live-token budget; 0 = unbounded
	index      map[uint64]int32
	slots      []cacheEntry
	free       int32 // head of the free-slot list, linked through next
	head, tail int32 // LRU list: head is the least recently touched
	liveTokens int   // sum of resident entries' sizes
	// Cumulative memory-pressure statistics (metrics.Serving rollup).
	peakTokens    int // high-water mark of liveTokens
	evictedTokens int // tokens removed by capacity eviction
}

// noSlot terminates every slot list and marks a root entry's parent.
const noSlot int32 = -1

// cacheEntry is one prefix slot: its key, the token size of its last
// section, its parent's slot, its LRU neighbours (prev/next), and its
// children as a sibling list (first kid, previous and next sibling). The
// kid list is exact — a child can only be evicted together with its parent
// chain, so a resident entry's kids are always resident.
type cacheEntry struct {
	key            uint64
	size           int
	parent         int32
	prev, next     int32
	kid, psib, sib int32
}

// newPrefixCache builds a cache bounded by entry count and/or live tokens;
// both zero (or negative) disables caching entirely.
func newPrefixCache(capEntries, capTokens int) *prefixCache {
	if capEntries <= 0 && capTokens <= 0 {
		return nil
	}
	if capEntries < 0 {
		capEntries = 0
	}
	if capTokens < 0 {
		capTokens = 0
	}
	hint := capEntries
	if hint == 0 {
		hint = 64
	}
	return &prefixCache{
		capEntries: capEntries,
		capTokens:  capTokens,
		index:      make(map[uint64]int32, hint),
		free:       noSlot,
		head:       noSlot,
		tail:       noSlot,
	}
}

// FNV-1a constants, chained manually so a prefix key extends its parent's.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// chainSection folds one section's shape identity (name and token count)
// into a running prefix key.
func chainSection(h uint64, s prompt.Section) uint64 {
	for i := 0; i < len(s.Name); i++ {
		h ^= uint64(s.Name[i])
		h *= fnvPrime
	}
	sz := s.Size()
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(sz >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// chainSectionContent folds one section's content identity (its
// prompt.Section.Digest) into a running prefix key.
func chainSectionContent(h uint64, s prompt.Section) uint64 {
	d := s.Digest()
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(d >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// sectionKey is one prefix of a prompt: the chained FNV key covering the
// prompt up to and including a section, and that section's token size.
type sectionKey struct {
	key  uint64
	size int
}

// promptKey is a prompt's memoized prefix-chain identity. Routing probes
// every replica's cache and admission prices + inserts the prompt, so a
// request's chain is hashed once here and shared by all of them instead of
// being recomputed per probe.
type promptKey struct {
	secs  []sectionKey
	total int // total prompt tokens (the sum of section sizes)
}

// chainKeysIdent computes p's prefix chain under the given identity model,
// reusing buf's backing array. The caller owns the lifetime: a scratch
// buffer may be reused once the returned key is no longer referenced.
func chainKeysIdent(buf []sectionKey, p prompt.Prompt, ident CacheIdentity) promptKey {
	k := promptKey{secs: buf[:0]}
	h := fnvOffset
	for _, s := range p.Sections {
		if ident == IdentityContent {
			h = chainSectionContent(h, s)
		} else {
			h = chainSection(h, s)
		}
		sz := s.Size()
		k.secs = append(k.secs, sectionKey{key: h, size: sz})
		k.total += sz
	}
	return k
}

// chainKeysInto is chainKeysIdent under the default shape identity.
func chainKeysInto(buf []sectionKey, p prompt.Prompt) promptKey {
	return chainKeysIdent(buf, p, IdentityShape)
}

// chainKeys is chainKeysInto with a fresh backing array.
func chainKeys(p prompt.Prompt) promptKey { return chainKeysInto(nil, p) }

// matchKey reports how many leading tokens of the keyed prompt are covered
// by cached prefixes: sections are matched front-to-back and the chain
// stops at the first miss, mirroring KV-cache prefix reuse.
func (c *prefixCache) matchKey(k promptKey) int {
	if c == nil {
		return 0
	}
	cached := 0
	for _, s := range k.secs {
		if _, ok := c.index[s.key]; !ok {
			break
		}
		cached += s.size
	}
	return cached
}

// match is matchKey over an unmemoized prompt (tests and one-shot probes).
func (c *prefixCache) match(p prompt.Prompt) int {
	if c == nil {
		return 0
	}
	return c.matchKey(chainKeys(p))
}

// pressure estimates how many warm tokens inserting the keyed prompt would
// evict: the uncached suffix grows the footprint by (total - cached)
// tokens, and whatever lands beyond the token budget must push out resident
// entries. Zero without a token budget, so entry-count deployments price
// exactly as before. Capacity-aware routing charges this as the placement
// penalty that keeps cache-affinity from piling every shared-preamble
// prompt onto one replica.
func (c *prefixCache) pressure(k promptKey, cached int) int {
	if c == nil {
		return 0
	}
	return c.pressureGrowth(k.total - cached)
}

// batchGrowth reports how many tokens inserting ALL the keyed prompts
// would add to the live footprint: the sizes of section prefixes that are
// neither resident nor shared with an earlier member (the inserted chains
// form a tree, so shared uncached prefixes — the batch's common preamble —
// count once). seen is caller-owned scratch, cleared here before use.
func (c *prefixCache) batchGrowth(keys []promptKey, seen map[uint64]bool) int {
	if c == nil {
		return 0
	}
	clear(seen)
	growth := 0
	for _, k := range keys {
		for _, s := range k.secs {
			if seen[s.key] {
				continue
			}
			seen[s.key] = true
			if _, ok := c.index[s.key]; !ok {
				growth += s.size
			}
		}
	}
	return growth
}

// pressureGrowth converts an insertion's token growth into the warm-token
// displacement the token budget forces (the shared clamp behind pressure
// and batchGrowth-based batch pressure).
func (c *prefixCache) pressureGrowth(growth int) int {
	if c == nil || c.capTokens <= 0 {
		return 0
	}
	over := c.liveTokens + growth - c.capTokens
	if over <= 0 {
		return 0
	}
	if over > c.liveTokens {
		over = c.liveTokens
	}
	return over
}

// insertKey touches every prefix of the keyed prompt (so the whole prompt
// becomes reusable by followers) and evicts least-recently-touched chains
// beyond capacity.
func (c *prefixCache) insertKey(k promptKey) {
	if c == nil {
		return
	}
	parent := noSlot
	for _, s := range k.secs {
		i, ok := c.index[s.key]
		if ok {
			c.unlinkLRU(i)
		} else {
			i = c.alloc()
			c.slots[i] = cacheEntry{key: s.key, size: s.size, parent: parent, kid: noSlot, psib: noSlot, sib: noSlot}
			c.index[s.key] = i
			c.liveTokens += s.size
			// The parent is always resident here: the chain is inserted
			// front-to-back, so it was created or touched one iteration ago.
			if parent != noSlot {
				c.linkKid(parent, i)
			}
		}
		c.pushLRU(i)
		parent = i
	}
	c.evictOver()
	if c.liveTokens > c.peakTokens {
		c.peakTokens = c.liveTokens
	}
}

// alloc takes a slot from the free list, growing the arena when it is empty.
func (c *prefixCache) alloc() int32 {
	if i := c.free; i != noSlot {
		c.free = c.slots[i].next
		return i
	}
	c.slots = append(c.slots, cacheEntry{})
	return int32(len(c.slots) - 1)
}

// pushLRU appends slot i at the most-recently-touched end of the LRU list.
func (c *prefixCache) pushLRU(i int32) {
	e := &c.slots[i]
	e.prev, e.next = c.tail, noSlot
	if c.tail == noSlot {
		c.head = i
	} else {
		c.slots[c.tail].next = i
	}
	c.tail = i
}

// unlinkLRU removes slot i from the LRU list.
func (c *prefixCache) unlinkLRU(i int32) {
	e := &c.slots[i]
	if e.prev == noSlot {
		c.head = e.next
	} else {
		c.slots[e.prev].next = e.next
	}
	if e.next == noSlot {
		c.tail = e.prev
	} else {
		c.slots[e.next].prev = e.prev
	}
}

// linkKid makes slot i the first child of slot p.
func (c *prefixCache) linkKid(p, i int32) {
	pe, e := &c.slots[p], &c.slots[i]
	e.sib = pe.kid
	if pe.kid != noSlot {
		c.slots[pe.kid].psib = i
	}
	pe.kid = i
}

// unlinkKid removes slot i from its parent's child list.
func (c *prefixCache) unlinkKid(i int32) {
	e := &c.slots[i]
	if e.parent == noSlot {
		return
	}
	if e.psib == noSlot {
		c.slots[e.parent].kid = e.sib
	} else {
		c.slots[e.psib].sib = e.sib
	}
	if e.sib != noSlot {
		c.slots[e.sib].psib = e.psib
	}
}

// evictOver removes least-recently-touched chains until both budgets hold.
// Each step evicts the LRU head TOGETHER with its resident extensions: a
// suffix is unreachable (matchKey stops at its missing parent) yet still
// holds KV memory, so leaving it behind — the seed's orphaned-suffix bug —
// both leaked capacity and corrupted later matches when the parent was
// re-inserted around a stale suffix.
func (c *prefixCache) evictOver() {
	for (c.capEntries > 0 && len(c.index) > c.capEntries) ||
		(c.capTokens > 0 && c.liveTokens > c.capTokens) {
		// Unlink from the surviving parent first: the evicted subtree's own
		// links die with it.
		c.unlinkKid(c.head)
		c.evictChain(c.head)
	}
}

// evictChain removes an entry and, recursively, its resident extensions —
// the cascade that keeps every resident key's parent chain resident.
func (c *prefixCache) evictChain(i int32) {
	for k := c.slots[i].kid; k != noSlot; {
		next := c.slots[k].sib
		c.evictChain(k)
		k = next
	}
	e := &c.slots[i]
	delete(c.index, e.key)
	c.liveTokens -= e.size
	c.evictedTokens += e.size
	c.unlinkLRU(i)
	e.next = c.free
	c.free = i
}

// flush empties the cache, pricing every live token as a capacity
// eviction: retiring a replica (autoscale scale-down) destroys its warm KV
// state, and the memory-pressure accounting must see that loss exactly as
// it sees LRU eviction. Peak and cumulative-eviction statistics survive
// the flush; a reactivated replica starts cold but keeps its history.
func (c *prefixCache) flush() {
	if c == nil {
		return
	}
	c.evictedTokens += c.liveTokens
	c.liveTokens = 0
	clear(c.index)
	c.slots = c.slots[:0]
	c.free, c.head, c.tail = noSlot, noSlot, noSlot
}

// insert is insertKey over an unmemoized prompt (tests and one-shot use).
func (c *prefixCache) insert(p prompt.Prompt) {
	if c == nil {
		return
	}
	c.insertKey(chainKeys(p))
}

// Live/peak/evicted token accounting, rolled up into metrics.Serving by
// Endpoint.Stats.
func (c *prefixCache) stats() (live, peak, evicted int) {
	if c == nil {
		return 0, 0, 0
	}
	return c.liveTokens, c.peakTokens, c.evictedTokens
}
