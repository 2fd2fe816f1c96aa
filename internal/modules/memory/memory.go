// Package memory implements the memory module of an embodied agent
// (paper Sec. II-A): observation, action and dialogue records with bounded
// retention, retrieval cost accounting, and the dual long-term/short-term
// structure of Rec. 5.
package memory

import (
	"reflect"
	"strings"
	"sync"
	"time"
)

// Kind classifies a record, following the paper's three memory categories.
type Kind int

// Record kinds.
const (
	Observation Kind = iota // world state seen by the sensing module
	Action                  // the agent's own decisions and outcomes
	Dialogue                // messages exchanged with other agents
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Observation:
		return "observation"
	case Action:
		return "action"
	case Dialogue:
		return "dialogue"
	}
	return "unknown"
}

// Record is one remembered fact or event.
type Record struct {
	Step    int    // environment step at which it was recorded
	Kind    Kind   // observation / action / dialogue
	Key     string // identity for dedup and novelty checks, e.g. "obj:apple"
	Payload any    // environment-specific content
	Tokens  int    // prompt cost when rendered into context
	Static  bool   // long-lived fact (map layout); eligible for long-term store
	Routine bool   // self-status bookkeeping (own pose, action log); never novel to others
}

// Retrieval cost model: scanning and serializing memory into context costs
// retrievalBase plus retrievalPerRecord for every record returned. This is
// what makes large memory capacities slower per step (paper Fig. 5).
const (
	retrievalBase      = 30 * time.Millisecond
	retrievalPerRecord = 8 * time.Millisecond
)

// Store is a step-windowed memory with the paper's capacity semantics:
// a capacity of K retains records from the most recent K environment steps.
// Capacity < 0 means unlimited (full state-action history); capacity 0
// drops everything (the "w/o Memory" ablation of Fig. 3).
type Store struct {
	capacity int
	records  []Record
	latest   map[string]int // Key -> index of most recent record
}

// NewStore returns a store with the given capacity in steps.
func NewStore(capacity int) *Store {
	return &Store{capacity: capacity, latest: make(map[string]int)}
}

// Capacity reports the configured step window (negative = unlimited).
func (s *Store) Capacity() int { return s.capacity }

// SetCapacity changes the window, taking effect on the next Retrieve.
func (s *Store) SetCapacity(k int) { s.capacity = k }

// pruneThreshold bounds the in-memory record count for windowed stores:
// once exceeded, records older than the window are compacted away. This
// keeps long multi-agent episodes (hundreds of dialogue records per step)
// linear in the window, not the episode.
const pruneThreshold = 2048

// dedupWindow suppresses immediate restatements: an unchanged fact
// re-observed within this many steps of its last record is not stored
// again. Restatements older than the window still accumulate — agents do
// keep re-logging the world, which is exactly the paper's prompt-growth
// mechanism (Fig. 6) — but per-step duplicate floods (every teammate
// repeating every fact every step) stay bounded.
const dedupWindow = 4

// Add appends a record. Zero-capacity stores discard immediately.
func (s *Store) Add(rec Record) {
	if s.capacity == 0 {
		return
	}
	if rec.Key != "" {
		if i, ok := s.latest[rec.Key]; ok {
			prev := s.records[i]
			if prev.Step <= rec.Step && rec.Step-prev.Step < dedupWindow &&
				SamePayload(prev.Payload, rec.Payload) {
				return
			}
		}
	}
	s.records = append(s.records, rec)
	if rec.Key != "" {
		s.latest[rec.Key] = len(s.records) - 1
	}
	if s.capacity > 0 && len(s.records) > pruneThreshold {
		s.prune(rec.Step)
	}
}

// prune drops records that have fallen out of the window as of now.
func (s *Store) prune(now int) {
	cut := now - s.capacity
	kept := s.records[:0]
	for _, r := range s.records {
		if r.Step > cut || r.Static {
			kept = append(kept, r)
		}
	}
	s.records = kept
	s.latest = make(map[string]int, len(kept))
	for i, r := range kept {
		if r.Key != "" {
			s.latest[r.Key] = i
		}
	}
}

// AddAll appends records in order.
func (s *Store) AddAll(recs []Record) {
	for _, r := range recs {
		s.Add(r)
	}
}

// Len reports the number of records currently held.
func (s *Store) Len() int { return len(s.records) }

// Retrieval is the result of reading memory into planning context.
type Retrieval struct {
	Records []Record
	Tokens  int           // prompt cost of the retrieved content
	Latency time.Duration // simulated retrieval time
}

// Retrieve returns the records within the capacity window as of
// currentStep, newest-last, with the token and latency cost of
// serializing them into context.
//
// Records is a fresh slice holding exactly the window (nil when the window
// is empty and spare is 0), with room for spare more records past its end:
// the caller may append that many, such as the observation a plan lists
// after memory, without a second allocation. Such an append leaves Records'
// length and contents as they were but writes into its backing array, so a
// Retrieval takes at most one such append.
func (s *Store) Retrieve(currentStep, spare int) Retrieval {
	n, tokens := s.window(currentStep)
	var out []Record
	if n+spare > 0 {
		out = s.appendWindow(make([]Record, 0, n+spare), currentStep)
	}
	return Retrieval{
		Records: out,
		Tokens:  tokens,
		Latency: retrievalBase + time.Duration(n)*retrievalPerRecord,
	}
}

// inWindow reports whether a record of the given step is retrievable at
// currentStep.
func (s *Store) inWindow(step, currentStep int) bool {
	return s.capacity < 0 || s.capacity > 0 && step > currentStep-s.capacity
}

// window counts the records and tokens Retrieve would return.
func (s *Store) window(currentStep int) (n, tokens int) {
	for i := range s.records {
		if r := &s.records[i]; s.inWindow(r.Step, currentStep) {
			n++
			tokens += r.Tokens
		}
	}
	return n, tokens
}

// appendWindow appends the retrievable records to dst in store order.
func (s *Store) appendWindow(dst []Record, currentStep int) []Record {
	for i := range s.records {
		if s.inWindow(s.records[i].Step, currentStep) {
			dst = append(dst, s.records[i])
		}
	}
	return dst
}

// HasKey reports whether any retained record carries the key.
func (s *Store) HasKey(key string) bool {
	_, ok := s.latest[key]
	return ok
}

// Latest returns the most recent record for key, if any.
func (s *Store) Latest(key string) (Record, bool) {
	i, ok := s.latest[key]
	if !ok {
		return Record{}, false
	}
	return s.records[i], true
}

// Since returns records strictly newer than step — used by the
// communication module to share "what I learned since my last message".
func (s *Store) Since(step int) []Record {
	var out []Record
	for _, r := range s.records {
		if r.Step > step {
			out = append(out, r)
		}
	}
	return out
}

// Clear resets the store for a new episode.
func (s *Store) Clear() {
	s.records = s.records[:0]
	s.latest = make(map[string]int)
}

// Dual is the dual-memory structure of Rec. 5: static facts go to an
// unbounded long-term store that is summarized to a fixed token budget,
// while dynamic events live in a short-term sliding window. Retrieval
// touches far fewer records, cutting both latency and context dilution.
type Dual struct {
	Long       *Store // static environmental knowledge
	Short      *Store // recent events
	LongBudget int    // token budget for the long-term summary
}

// NewDual returns a dual memory with the given short-term window (steps)
// and long-term summary budget (tokens).
func NewDual(shortWindow, longBudget int) *Dual {
	return &Dual{
		Long:       NewStore(-1),
		Short:      NewStore(shortWindow),
		LongBudget: longBudget,
	}
}

// Add routes the record to the appropriate store: environmental knowledge
// (static facts and keyed world observations) consolidates into long-term
// memory, while agent status, actions and dialogue stay in the short-term
// window — the split Rec. 5 prescribes.
func (d *Dual) Add(rec Record) {
	if rec.Static {
		// Deduplicate static facts by key: the map doesn't change.
		if rec.Key != "" && d.Long.HasKey(rec.Key) {
			return
		}
		d.Long.Add(rec)
		return
	}
	if rec.Key != "" && !rec.Routine && !strings.HasPrefix(rec.Key, "claim:") {
		// World knowledge — wherever it came from (own sensing, a message,
		// a reflection correction) — consolidates into long-term memory.
		d.Long.Add(rec)
		return
	}
	d.Short.Add(rec)
}

// AddAll appends records in order.
func (d *Dual) AddAll(recs []Record) {
	for _, r := range recs {
		d.Add(r)
	}
}

// Retrieve merges the compact long-term summary with the short-term
// window. Long-term content is capped at LongBudget tokens regardless of
// how much static knowledge accumulated. Records and spare follow
// Store.Retrieve.
func (d *Dual) Retrieve(currentStep, spare int) Retrieval {
	nLong, tokens := d.Long.window(currentStep)
	nShort, shortTokens := d.Short.window(currentStep)
	if d.LongBudget > 0 && tokens > d.LongBudget {
		tokens = d.LongBudget
	}
	recs := d.Long.appendWindow(make([]Record, 0, nLong+nShort+spare), currentStep)
	recs = d.Short.appendWindow(recs, currentStep)
	return Retrieval{
		Records: recs,
		Tokens:  tokens + shortTokens,
		// The long-term summary is precomputed; only the short window is
		// scanned at plan time.
		Latency: retrievalBase + time.Duration(nShort)*retrievalPerRecord,
	}
}

// Clear resets both stores.
func (d *Dual) Clear() {
	d.Long.Clear()
	d.Short.Clear()
}

// SamePayload reports whether two record payloads are equal, with
// reflect.DeepEqual's result. Payloads of a comparable type with no
// pointer, interface, slice, map, chan or func inside — ints, strings,
// flat fact structs, which is what domains mostly emit — compare with ==,
// which agrees with DeepEqual on such values; any other payload falls back
// to DeepEqual.
func SamePayload(a, b any) bool {
	if a == nil || b == nil {
		return a == b
	}
	t := reflect.TypeOf(a)
	if t != reflect.TypeOf(b) {
		return false
	}
	if flatType(t) {
		return a == b
	}
	return reflect.DeepEqual(a, b)
}

// flatKinds caches flatType per payload type.
var flatKinds sync.Map // reflect.Type -> bool

// flatType reports whether == on values of t is exactly DeepEqual: t is
// built from booleans, numbers and strings through arrays and structs only.
func flatType(t reflect.Type) bool {
	if v, ok := flatKinds.Load(t); ok {
		return v.(bool)
	}
	flat := computeFlat(t)
	flatKinds.Store(t, flat)
	return flat
}

func computeFlat(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		return true
	case reflect.Array:
		return computeFlat(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !computeFlat(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}
