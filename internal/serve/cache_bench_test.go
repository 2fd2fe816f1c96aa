package serve

import (
	"fmt"
	"testing"

	"embench/internal/prompt"
)

// benchPrompt is a planning-shaped prompt: shared preamble, per-agent
// persona, growing history — the section mix the request path hashes.
func benchPrompt(agent string, step int) prompt.Prompt {
	return prompt.New(
		prompt.Section{Name: "system", Tokens: 220},
		prompt.Section{Name: "task", Tokens: 90},
		prompt.Section{Name: "persona-" + agent, Tokens: 800},
		prompt.Section{Name: "hist", Tokens: 60 + 40*step, Droppable: true},
	)
}

// BenchmarkPrefixChain compares rehashing the prompt's prefix chain once
// per replica probe plus once at admission against the memoized path the
// request path uses, which hashes once per request and shares the
// promptKey across routing probes and admission: per request, R+1 full FNV
// walks collapse to one.
func BenchmarkPrefixChain(b *testing.B) {
	const replicas = 4
	caches := make([]*prefixCache, replicas)
	for i := range caches {
		caches[i] = newPrefixCache(256, 0)
	}
	prompts := make([]prompt.Prompt, 16)
	for i := range prompts {
		prompts[i] = benchPrompt(fmt.Sprintf("a%d", i%4), i)
	}
	for _, c := range caches {
		c.insert(prompts[0]) // warm the shared preamble everywhere
	}

	b.Run("per-probe-rehash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := prompts[i%len(prompts)]
			for _, c := range caches {
				_ = c.match(p) // each probe rehashes the full chain
			}
			caches[i%replicas].insert(p) // admission rehashes again
		}
	})

	b.Run("memoized-key", func(b *testing.B) {
		b.ReportAllocs()
		var buf []sectionKey
		for i := 0; i < b.N; i++ {
			k := chainKeysInto(buf, prompts[i%len(prompts)])
			buf = k.secs
			for _, c := range caches {
				_ = c.matchKey(k) // probes share the one hash
			}
			caches[i%replicas].insertKey(k)
		}
	})
}

// churnKeys returns n single-history prompt keys that share a 200-token
// preamble and carry distinct 100-token histories, so cycling through more
// of them than a budget holds misses and evicts on every insert.
func churnKeys(n int) []promptKey {
	keys := make([]promptKey, n)
	for i := range keys {
		keys[i] = chainKeys(prompt.New(
			prompt.Section{Name: "system", Tokens: 200},
			prompt.Section{Name: fmt.Sprintf("hist-%d", i), Tokens: 100},
		))
	}
	return keys
}

// BenchmarkPrefixCacheChurn measures the eviction-bound steady state of a
// full token budget: every iteration matches and inserts a history the
// cache has not held for a long time, evicting the oldest one.
func BenchmarkPrefixCacheChurn(b *testing.B) {
	keys := churnKeys(4096)
	c := newPrefixCache(0, 200+100*256)
	for _, k := range keys {
		c.insertKey(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		_ = c.matchKey(k)
		c.insertKey(k)
	}
}
