package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"embench/internal/prompt"
)

// checkCacheInvariants asserts the structural contract of the prefix cache:
//
//  1. index and arena agree — every indexed key names a slot holding that
//     key, and the free list holds exactly the other slots,
//  2. parent-chain residency — no suffix entry outlives its prefix (the
//     orphaned-suffix regression),
//  3. token accounting — liveTokens is exactly the sum of resident entry
//     sizes and never exceeds the token budget,
//  4. entry accounting — the entry count never exceeds the entry budget,
//  5. kid links — every resident entry's sibling list names exactly its
//     resident children, with no stale slots or duplicates,
//  6. LRU list — a consistent doubly linked list from head to tail that
//     covers exactly the resident entries.
func checkCacheInvariants(t *testing.T, c *prefixCache) {
	t.Helper()
	if c == nil {
		return
	}
	resident := func(i int32) bool {
		j, ok := c.index[c.slots[i].key]
		return ok && j == i
	}
	tokens := 0
	for key, i := range c.index {
		if i < 0 || int(i) >= len(c.slots) || c.slots[i].key != key {
			t.Fatalf("index maps %x to slot %d, which does not hold it", key, i)
		}
		e := c.slots[i]
		tokens += e.size
		if e.parent != noSlot && !resident(e.parent) {
			t.Fatalf("orphaned suffix: entry %x resident but parent slot %d evicted", key, e.parent)
		}
	}
	free := 0
	for i := c.free; i != noSlot; i = c.slots[i].next {
		if resident(i) {
			t.Fatalf("resident slot %d is on the free list", i)
		}
		if free++; free > len(c.slots) {
			t.Fatal("free list cycles")
		}
	}
	if free+len(c.index) != len(c.slots) {
		t.Fatalf("%d free + %d resident slots != arena of %d", free, len(c.index), len(c.slots))
	}
	linked := map[int32]bool{}
	for key, i := range c.index {
		prev := noSlot
		for k := c.slots[i].kid; k != noSlot; k = c.slots[k].sib {
			if linked[k] {
				t.Fatalf("duplicate kid link %d under %x", k, key)
			}
			linked[k] = true
			if !resident(k) {
				t.Fatalf("stale kid link %d under %x", k, key)
			}
			if c.slots[k].parent != i {
				t.Fatalf("kid %d of %x points at parent slot %d", k, key, c.slots[k].parent)
			}
			if c.slots[k].psib != prev {
				t.Fatalf("kid %d of %x has previous sibling %d, want %d", k, key, c.slots[k].psib, prev)
			}
			prev = k
		}
	}
	// Reverse check: every resident child is linked from its parent.
	for key, i := range c.index {
		if c.slots[i].parent != noSlot && !linked[i] {
			t.Fatalf("entry %x resident but unlinked from parent slot %d", key, c.slots[i].parent)
		}
	}
	if tokens != c.liveTokens {
		t.Fatalf("liveTokens drifted: tracked %d, recount %d", c.liveTokens, tokens)
	}
	if c.capTokens > 0 && c.liveTokens > c.capTokens {
		t.Fatalf("live tokens %d exceed budget %d", c.liveTokens, c.capTokens)
	}
	if c.capEntries > 0 && len(c.index) > c.capEntries {
		t.Fatalf("entry count %d exceeds budget %d", len(c.index), c.capEntries)
	}
	if c.liveTokens > c.peakTokens {
		t.Fatalf("peak %d below live %d", c.peakTokens, c.liveTokens)
	}
	n, prev := 0, noSlot
	for i := c.head; i != noSlot; i = c.slots[i].next {
		if !resident(i) {
			t.Fatalf("LRU list holds non-resident slot %d", i)
		}
		if c.slots[i].prev != prev {
			t.Fatalf("LRU slot %d has prev %d, want %d", i, c.slots[i].prev, prev)
		}
		if n++; n > len(c.index) {
			t.Fatalf("LRU list longer than the %d resident entries", len(c.index))
		}
		prev = i
	}
	if c.tail != prev {
		t.Fatalf("LRU tail %d, list ends at %d", c.tail, prev)
	}
	if n != len(c.index) {
		t.Fatalf("LRU list covers %d of %d resident entries", n, len(c.index))
	}
}

// TestCacheOrphanedSuffixRegression reproduces the seed bug directly:
// evict a chain's root and the extension must go with it — not survive as
// unreachable ballast that still counts against capacity.
func TestCacheOrphanedSuffixRegression(t *testing.T) {
	c := newPrefixCache(3, 0)
	chain := prompt.New(
		prompt.Section{Name: "system", Tokens: 100},
		prompt.Section{Name: "hist", Tokens: 50},
	)
	c.insert(chain)
	if len(c.index) != 2 {
		t.Fatalf("chain should occupy 2 entries, got %d", len(c.index))
	}
	// Two fresh single-section prompts: capacity 3 forces eviction of the
	// oldest entry — the chain's "system" root (tick 1; "hist" is tick 2).
	c.insert(prompt.New(prompt.Section{Name: "a", Tokens: 10}))
	c.insert(prompt.New(prompt.Section{Name: "b", Tokens: 10}))
	if got := c.match(chain); got != 0 {
		t.Fatalf("chain root evicted but match still covers %d tokens", got)
	}
	for key, i := range c.index {
		if p := c.slots[i].parent; p != noSlot {
			if j, ok := c.index[c.slots[p].key]; !ok || j != p {
				t.Fatalf("suffix %x outlived its prefix — the seed bug", key)
			}
		}
	}
	// The seed evicted only the root, keeping the unreachable "hist"
	// suffix resident: {hist, a, b} with one entry of dead capacity. The
	// cascade removes the whole chain, leaving the two reachable roots.
	if len(c.index) != 2 {
		t.Fatalf("resident entries = %d, want the 2 reachable roots", len(c.index))
	}
	checkCacheInvariants(t, c)
}

// randomPrompt builds a randomized section chain that shares prefixes with
// other draws often: a fixed preamble, one of a few personas, one of many
// history sizes — plus occasional deep chains.
func randomPrompt(r *rand.Rand) prompt.Prompt {
	secs := []prompt.Section{
		{Name: "system", Tokens: 100 + 50*r.Intn(2)},
		{Name: fmt.Sprintf("persona-%d", r.Intn(6)), Tokens: 200 + 100*r.Intn(3)},
	}
	depth := 1 + r.Intn(3)
	for d := 0; d < depth; d++ {
		secs = append(secs, prompt.Section{
			Name:   fmt.Sprintf("hist%d", d),
			Tokens: 20 + 10*r.Intn(8),
		})
	}
	return prompt.New(secs...)
}

// TestCacheRandomizedCapacityAccounting drives randomized insert/match
// sequences through token-budget, entry-budget and dual-budget caches and
// checks every structural invariant after each insert — the satellite's
// "live cached tokens never exceed budget across randomized insert/evict
// sequences".
func TestCacheRandomizedCapacityAccounting(t *testing.T) {
	for _, cfg := range cacheBudgets {
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			c := newPrefixCache(cfg.capEntries, cfg.capTok)
			for i := 0; i < 2000; i++ {
				p := randomPrompt(r)
				c.match(p)
				c.insert(p)
				checkCacheInvariants(t, c)
			}
			if c.evictedTokens == 0 {
				t.Fatal("workload never hit capacity; budget too loose to test eviction")
			}
		})
	}
}

// TestCacheCompactionPreservesLRUOrder hammers one hot chain after a run
// of cold singletons, then checks eviction still removes the honestly
// least-recently-touched entry first — repeated touches must move the hot
// entry to the tail, not leave it where it was first inserted.
func TestCacheCompactionPreservesLRUOrder(t *testing.T) {
	c := newPrefixCache(0, 1000)
	hot := prompt.New(prompt.Section{Name: "hot", Tokens: 100})
	cold := make([]prompt.Prompt, 8)
	for i := range cold {
		cold[i] = prompt.New(prompt.Section{Name: fmt.Sprintf("cold-%d", i), Tokens: 100})
	}
	for _, p := range cold {
		c.insert(p)
	}
	for i := 0; i < 500; i++ {
		c.insert(hot)
	}
	checkCacheInvariants(t, c)
	// 8 cold (800 tokens) + hot (100) = 900 live. A 150-token insert must
	// evict exactly the oldest cold entry, not the hot one and not a newer
	// cold one.
	c.insert(prompt.New(prompt.Section{Name: "newcomer", Tokens: 150}))
	if c.match(cold[0]) != 0 {
		t.Fatal("oldest cold entry should have been evicted first")
	}
	for _, p := range cold[2:] {
		if c.match(p) == 0 {
			t.Fatal("newer cold entries evicted before the oldest")
		}
	}
	if c.match(hot) == 0 {
		t.Fatal("hot entry evicted despite being most recently touched")
	}
	checkCacheInvariants(t, c)
}

// TestCacheIdentityAgreement: on prompts whose sections carry only token
// counts (no text), shape and content identity must produce identical
// match results over any shared operation sequence.
func TestCacheIdentityAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shape := newPrefixCache(0, 1500)
	content := newPrefixCache(0, 1500)
	for i := 0; i < 1500; i++ {
		p := randomPrompt(r)
		ks := chainKeysIdent(nil, p, IdentityShape)
		kc := chainKeysIdent(nil, p, IdentityContent)
		if ms, mc := shape.matchKey(ks), content.matchKey(kc); ms != mc {
			t.Fatalf("op %d: shape match %d != content match %d", i, ms, mc)
		}
		shape.insertKey(ks)
		content.insertKey(kc)
		if shape.liveTokens != content.liveTokens || len(shape.index) != len(content.index) {
			t.Fatalf("op %d: caches diverged: %d/%d tokens, %d/%d entries",
				i, shape.liveTokens, content.liveTokens, len(shape.index), len(content.index))
		}
	}
	checkCacheInvariants(t, shape)
	checkCacheInvariants(t, content)
}

// TestCacheContentIdentityDistinguishesText: same shape, different words —
// shape identity falsely hits, content identity does not; and a history
// that diverges then reconverges to identical text re-shares under content
// identity even though intermediate sizes drifted.
func TestCacheContentIdentityDistinguishesText(t *testing.T) {
	mk := func(text string) prompt.Prompt {
		return prompt.New(
			prompt.Section{Name: "system", Tokens: 100},
			prompt.Section{Name: "hist", Text: text},
		)
	}
	aliceP := mk("alice moved the red block onto the shelf")
	bobP := mk("bobby picked an apple up from the table")
	if aliceP.Tokens() != bobP.Tokens() {
		t.Fatalf("test needs same-shape prompts: %d vs %d tokens", aliceP.Tokens(), bobP.Tokens())
	}

	shape := newPrefixCache(0, 4096)
	shape.insertKey(chainKeysIdent(nil, aliceP, IdentityShape))
	if got := shape.matchKey(chainKeysIdent(nil, bobP, IdentityShape)); got != bobP.Tokens() {
		t.Fatalf("shape identity should falsely hit the same-shape prompt (got %d)", got)
	}

	content := newPrefixCache(0, 4096)
	content.insertKey(chainKeysIdent(nil, aliceP, IdentityContent))
	if got := content.matchKey(chainKeysIdent(nil, bobP, IdentityContent)); got != 100 {
		t.Fatalf("content identity must stop at the diverged text (got %d, want 100)", got)
	}
	// Reconvergence: an identical-text follower re-shares the full chain.
	if got := content.matchKey(chainKeysIdent(nil, mk("alice moved the red block onto the shelf"), IdentityContent)); got != aliceP.Tokens() {
		t.Fatalf("content identity must re-share reconverged text (got %d, want %d)", got, aliceP.Tokens())
	}
}

// TestCachePressure pins the capacity-pressure signal routing charges: zero
// without a token budget, zero under budget, the overflow when over, and
// never more than what is actually resident.
func TestCachePressure(t *testing.T) {
	p := prompt.New(prompt.Section{Name: "s", Tokens: 400})
	k := chainKeys(p)

	entryOnly := newPrefixCache(64, 0)
	if got := entryOnly.pressure(k, 0); got != 0 {
		t.Fatalf("entry-count cache must report zero pressure, got %d", got)
	}

	c := newPrefixCache(0, 1000)
	if got := c.pressure(k, 0); got != 0 {
		t.Fatalf("empty cache under budget: pressure %d, want 0", got)
	}
	c.insert(prompt.New(prompt.Section{Name: "warm", Tokens: 700}))
	// 700 live + 400 incoming - 1000 budget = 100 warm tokens displaced.
	if got := c.pressure(k, 0); got != 100 {
		t.Fatalf("pressure = %d, want 100", got)
	}
	// A fully cached prompt adds nothing and displaces nothing.
	kw := chainKeys(prompt.New(prompt.Section{Name: "warm", Tokens: 700}))
	if got := c.pressure(kw, 700); got != 0 {
		t.Fatalf("warm re-insert pressure = %d, want 0", got)
	}
	// Overflow beyond everything resident clamps at the resident total.
	huge := chainKeys(prompt.New(prompt.Section{Name: "huge", Tokens: 10000}))
	if got := c.pressure(huge, 0); got != 700 {
		t.Fatalf("pressure clamp = %d, want 700 (all resident tokens)", got)
	}
}

// TestCacheTokenBudgetEvictsDeadHistory: old history leaves (sizes that
// will never recur) are the oldest entries, so a token budget self-cleans
// them while the shared preamble and persona stay warm.
func TestCacheTokenBudgetEvictsDeadHistory(t *testing.T) {
	c := newPrefixCache(0, 1500)
	mk := func(hist int) prompt.Prompt {
		return prompt.New(
			prompt.Section{Name: "system", Tokens: 300},
			prompt.Section{Name: "persona", Tokens: 500},
			prompt.Section{Name: "hist", Tokens: hist},
		)
	}
	for s := 0; s < 20; s++ {
		c.insert(mk(100 + 10*s))
		checkCacheInvariants(t, c)
	}
	last := mk(100 + 10*19)
	if got := c.match(last); got != last.Tokens() {
		t.Fatalf("latest chain should be fully resident, got %d of %d", got, last.Tokens())
	}
	if got := c.match(mk(100)); got != 800 {
		t.Fatalf("dead history leaf should be evicted, preamble+persona warm: got %d, want 800", got)
	}
	if c.evictedTokens == 0 {
		t.Fatal("budget never evicted anything")
	}
}

// TestCacheSteadyStateAllocs pins the slot arena's purpose: once warm, a
// token-budgeted cache that evicts on every insert allocates nothing per
// match and insert.
func TestCacheSteadyStateAllocs(t *testing.T) {
	keys := churnKeys(64)
	c := newPrefixCache(0, 200+100*8)
	for i := 0; i < 10*len(keys); i++ {
		c.insertKey(keys[i%len(keys)])
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := keys[i%len(keys)]
		i++
		_ = c.matchKey(k)
		before := c.evictedTokens
		c.insertKey(k)
		if c.evictedTokens == before {
			t.Fatal("insert did not evict; the budget no longer churns")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm insertKey+matchKey allocated %v times per call, want 0", allocs)
	}
	checkCacheInvariants(t, c)
}
