package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"embench/internal/prompt"
)

// oracleCache is the seed prefixCache — a map of heap entries with
// per-entry kid slices and a tick-stamped lazy-deletion LRU queue — kept
// as the reference the slot-arena cache is checked against. Its behaviour
// is the specification: same matches, same evictions, same statistics.
type oracleCache struct {
	capEntries    int
	capTokens     int
	entries       map[uint64]*oracleEntry
	order         []oracleEvent // touch events, oldest first; stale ones skipped
	tick          int
	liveTokens    int
	peakTokens    int
	evictedTokens int
}

type oracleEntry struct {
	parent uint64
	size   int
	tick   int
	kids   []uint64
}

// oracleEvent is one touch of a prefix key; it is stale when the key has
// been touched again (or evicted) since.
type oracleEvent struct {
	key  uint64
	tick int
}

func newOracleCache(capEntries, capTokens int) *oracleCache {
	return &oracleCache{capEntries: capEntries, capTokens: capTokens, entries: map[uint64]*oracleEntry{}}
}

func (c *oracleCache) matchKey(k promptKey) int {
	cached := 0
	for _, s := range k.secs {
		if _, ok := c.entries[s.key]; !ok {
			break
		}
		cached += s.size
	}
	return cached
}

func (c *oracleCache) pressure(k promptKey, cached int) int {
	return c.pressureGrowth(k.total - cached)
}

func (c *oracleCache) batchGrowth(keys []promptKey) int {
	seen := map[uint64]bool{}
	growth := 0
	for _, k := range keys {
		for _, s := range k.secs {
			if seen[s.key] {
				continue
			}
			seen[s.key] = true
			if _, ok := c.entries[s.key]; !ok {
				growth += s.size
			}
		}
	}
	return growth
}

func (c *oracleCache) pressureGrowth(growth int) int {
	if c.capTokens <= 0 {
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

func (c *oracleCache) insertKey(k promptKey) {
	parent := fnvOffset
	for _, s := range k.secs {
		c.tick++
		e, ok := c.entries[s.key]
		if !ok {
			e = &oracleEntry{parent: parent, size: s.size}
			c.entries[s.key] = e
			c.liveTokens += s.size
			if pe, pok := c.entries[parent]; pok {
				pe.kids = append(pe.kids, s.key)
			}
		}
		e.tick = c.tick
		c.order = append(c.order, oracleEvent{key: s.key, tick: c.tick})
		parent = s.key
	}
	c.evictOver()
	// Compact once stale events dominate; live events already sit in
	// touch order, so filtering preserves LRU order.
	if len(c.order) > 2*len(c.entries)+64 {
		live := c.order[:0]
		for _, ev := range c.order {
			if e, ok := c.entries[ev.key]; ok && e.tick == ev.tick {
				live = append(live, ev)
			}
		}
		c.order = live
	}
	if c.liveTokens > c.peakTokens {
		c.peakTokens = c.liveTokens
	}
}

func (c *oracleCache) evictOver() {
	for (c.capEntries > 0 && len(c.entries) > c.capEntries) ||
		(c.capTokens > 0 && c.liveTokens > c.capTokens) {
		ev := c.order[0]
		c.order = c.order[1:]
		e, ok := c.entries[ev.key]
		if !ok || e.tick != ev.tick {
			continue // stale event: key evicted or touched since
		}
		if pe, pok := c.entries[e.parent]; pok {
			for i, kid := range pe.kids {
				if kid == ev.key {
					pe.kids[i] = pe.kids[len(pe.kids)-1]
					pe.kids = pe.kids[:len(pe.kids)-1]
					break
				}
			}
		}
		c.evictChain(ev.key, e)
	}
}

func (c *oracleCache) evictChain(key uint64, e *oracleEntry) {
	delete(c.entries, key)
	c.liveTokens -= e.size
	c.evictedTokens += e.size
	for _, kid := range e.kids {
		if ke, ok := c.entries[kid]; ok {
			c.evictChain(kid, ke)
		}
	}
}

func (c *oracleCache) flush() {
	c.evictedTokens += c.liveTokens
	c.liveTokens = 0
	clear(c.entries)
	c.order = c.order[:0]
}

func (c *oracleCache) stats() (live, peak, evicted int) {
	return c.liveTokens, c.peakTokens, c.evictedTokens
}

// residentKeys lists the oracle's resident prefix keys, sorted.
func (c *oracleCache) residentKeys() []uint64 {
	keys := make([]uint64, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// residentKeys lists the cache's resident prefix keys, sorted.
func (c *prefixCache) residentKeys() []uint64 {
	keys := make([]uint64, 0, len(c.index))
	for k := range c.index {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// cacheDiff drives a prefixCache and its oracle through the same
// operations and fails on the first observable difference.
type cacheDiff struct {
	t    *testing.T
	c    *prefixCache
	o    *oracleCache
	seen map[uint64]bool
}

func newCacheDiff(t *testing.T, capEntries, capTokens int) *cacheDiff {
	return &cacheDiff{t: t, c: newPrefixCache(capEntries, capTokens), o: newOracleCache(capEntries, capTokens), seen: map[uint64]bool{}}
}

func (d *cacheDiff) match(op int, k promptKey) {
	d.t.Helper()
	if got, want := d.c.matchKey(k), d.o.matchKey(k); got != want {
		d.t.Fatalf("op %d: matchKey = %d, oracle %d", op, got, want)
	}
}

func (d *cacheDiff) pressure(op int, k promptKey) {
	d.t.Helper()
	cached := d.o.matchKey(k)
	if got, want := d.c.pressure(k, cached), d.o.pressure(k, cached); got != want {
		d.t.Fatalf("op %d: pressure = %d, oracle %d", op, got, want)
	}
}

func (d *cacheDiff) batchGrowth(op int, keys []promptKey) {
	d.t.Helper()
	got, want := d.c.batchGrowth(keys, d.seen), d.o.batchGrowth(keys)
	if got != want {
		d.t.Fatalf("op %d: batchGrowth = %d, oracle %d", op, got, want)
	}
	if got, want := d.c.pressureGrowth(got), d.o.pressureGrowth(want); got != want {
		d.t.Fatalf("op %d: batch pressure = %d, oracle %d", op, got, want)
	}
}

func (d *cacheDiff) insert(k promptKey) { d.c.insertKey(k); d.o.insertKey(k) }

func (d *cacheDiff) flush() { d.c.flush(); d.o.flush() }

// check compares statistics and resident key sets, then the structural
// invariants of the cache under test.
func (d *cacheDiff) check(op int) {
	d.t.Helper()
	l, p, e := d.c.stats()
	ol, op2, oe := d.o.stats()
	if l != ol || p != op2 || e != oe {
		d.t.Fatalf("op %d: stats (live %d, peak %d, evicted %d), oracle (%d, %d, %d)", op, l, p, e, ol, op2, oe)
	}
	if got, want := d.c.residentKeys(), d.o.residentKeys(); !slices.Equal(got, want) {
		d.t.Fatalf("op %d: %d resident keys, oracle %d (or the sets differ)", op, len(got), len(want))
	}
	checkCacheInvariants(d.t, d.c)
}

// apply runs one operation, chosen by code in [0, 100), on both caches and
// checks them against each other: mostly match-then-insert (the admission
// path), then bare matches, pressure probes, batch growth of one to four
// prompts, and rarely a flush.
func (d *cacheDiff) apply(op, code int, key func() promptKey) {
	d.t.Helper()
	switch {
	case code < 45:
		k := key()
		d.match(op, k)
		d.insert(k)
	case code < 65:
		d.match(op, key())
	case code < 80:
		d.pressure(op, key())
	case code < 98:
		keys := make([]promptKey, 1+code%4)
		for i := range keys {
			keys[i] = key()
		}
		d.batchGrowth(op, keys)
	default:
		d.flush()
	}
	d.check(op)
}

// cacheBudgets are the budget shapes the differential checks cover.
var cacheBudgets = []struct {
	name               string
	capEntries, capTok int
}{
	{"token-budget", 0, 900},
	{"entry-budget", 12, 0},
	{"both-budgets", 16, 1200},
	{"tight-tokens", 0, 300},
}

// histTexts are the history texts of textPrompt and fuzzPrompt. The last
// two have the same token count, so shape identity falsely shares them
// and content identity does not.
var histTexts = []string{"alice moved the red block", "bobby picked an apple", "carol opened the fridge"}

// textPrompt is randomPrompt with some history sections carrying text, so
// shape and content identity disagree.
func textPrompt(r *rand.Rand) prompt.Prompt {
	p := randomPrompt(r)
	for i := 2; i < len(p.Sections); i++ {
		if r.Intn(2) == 0 {
			p.Sections[i] = prompt.Section{Name: p.Sections[i].Name, Text: histTexts[r.Intn(len(histTexts))]}
		}
	}
	return p
}

// TestCacheMatchesOracle drives the slot-arena cache and the seed oracle
// with one randomized operation sequence per budget and identity model,
// comparing every result, the statistics and the resident key set after
// each operation.
func TestCacheMatchesOracle(t *testing.T) {
	for _, cfg := range cacheBudgets {
		for _, ident := range []CacheIdentity{IdentityShape, IdentityContent} {
			t.Run(fmt.Sprintf("%s/%s", cfg.name, ident), func(t *testing.T) {
				r := rand.New(rand.NewSource(11))
				d := newCacheDiff(t, cfg.capEntries, cfg.capTok)
				key := func() promptKey { return chainKeysIdent(nil, textPrompt(r), ident) }
				for op := 0; op < 3000; op++ {
					d.apply(op, r.Intn(100), key)
				}
				if d.o.evictedTokens == 0 {
					t.Fatal("sequence never hit capacity; budget too loose to test eviction")
				}
			})
		}
	}
}

// fuzzPrompt decodes one prompt in randomPrompt's shape, every choice
// taken from the fuzz bytes: one byte picks the preamble size, persona,
// persona size and history depth, and one byte per history section picks
// its size or, with the high bit set, its text.
func fuzzPrompt(next func() byte) prompt.Prompt {
	b := next()
	secs := []prompt.Section{
		{Name: "system", Tokens: 100 + 50*int(b&1)},
		{Name: fmt.Sprintf("persona-%d", (b>>1)%6), Tokens: 200 + 100*int((b>>4)%3)},
	}
	for d := 0; d < int(b>>6); d++ {
		h := next()
		s := prompt.Section{Name: fmt.Sprintf("hist%d", d), Tokens: 20 + 10*int(h%8)}
		if h&0x80 != 0 {
			s = prompt.Section{Name: s.Name, Text: histTexts[int(h>>3)%len(histTexts)]}
		}
		secs = append(secs, s)
	}
	return prompt.New(secs...)
}

// FuzzPrefixCache decodes an operation stream from the fuzz input — a
// first byte choosing the budget and identity model, then per operation a
// code byte and its prompts' bytes — and checks the cache's structural
// invariants and its agreement with the seed oracle after every operation.
func FuzzPrefixCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		head := next()
		cfg := cacheBudgets[int(head)%len(cacheBudgets)]
		ident := IdentityShape
		if head&4 != 0 {
			ident = IdentityContent
		}
		d := newCacheDiff(t, cfg.capEntries, cfg.capTok)
		key := func() promptKey { return chainKeysIdent(nil, fuzzPrompt(next), ident) }
		for op := 0; pos < len(data); op++ {
			d.apply(op, int(next())*100/256, key)
		}
	})
}
