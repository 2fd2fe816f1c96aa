package memory

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func rec(step int, kind Kind, key string, tokens int) Record {
	return Record{Step: step, Kind: kind, Key: key, Tokens: tokens}
}

func TestKindString(t *testing.T) {
	if Observation.String() != "observation" || Action.String() != "action" ||
		Dialogue.String() != "dialogue" || Kind(99).String() != "unknown" {
		t.Fatal("Kind names wrong")
	}
}

func TestStoreWindow(t *testing.T) {
	s := NewStore(3)
	for step := 0; step < 10; step++ {
		s.Add(rec(step, Observation, fmt.Sprintf("k%d", step), 10))
	}
	got := s.Retrieve(9, 0)
	// Window of 3 as of step 9 keeps steps 7,8,9.
	if len(got.Records) != 3 {
		t.Fatalf("retrieved %d records, want 3", len(got.Records))
	}
	if got.Records[0].Step != 7 || got.Records[2].Step != 9 {
		t.Fatalf("window edges wrong: %+v", got.Records)
	}
	if got.Tokens != 30 {
		t.Fatalf("tokens = %d, want 30", got.Tokens)
	}
}

func TestStoreUnlimited(t *testing.T) {
	s := NewStore(-1)
	for step := 0; step < 50; step++ {
		s.Add(rec(step, Action, "", 5))
	}
	if got := s.Retrieve(49, 0); len(got.Records) != 50 {
		t.Fatalf("unlimited store retrieved %d", len(got.Records))
	}
}

func TestStoreZeroCapacityDropsEverything(t *testing.T) {
	s := NewStore(0)
	s.Add(rec(0, Observation, "x", 5))
	if s.Len() != 0 {
		t.Fatal("zero-capacity store retained a record")
	}
	if got := s.Retrieve(0, 0); len(got.Records) != 0 {
		t.Fatal("zero-capacity store returned records")
	}
}

func TestRetrievalLatencyGrowsWithRecords(t *testing.T) {
	small := NewStore(-1)
	big := NewStore(-1)
	for i := 0; i < 5; i++ {
		small.Add(rec(i, Observation, "", 1))
	}
	for i := 0; i < 200; i++ {
		big.Add(rec(i, Observation, "", 1))
	}
	if big.Retrieve(199, 0).Latency <= small.Retrieve(4, 0).Latency {
		t.Fatal("retrieval latency should grow with record count (Fig. 5)")
	}
}

func TestHasKeyAndLatest(t *testing.T) {
	s := NewStore(-1)
	s.Add(rec(1, Observation, "obj:apple", 4))
	s.Add(Record{Step: 5, Kind: Observation, Key: "obj:apple", Payload: "kitchen", Tokens: 4})
	if !s.HasKey("obj:apple") || s.HasKey("obj:pear") {
		t.Fatal("HasKey wrong")
	}
	latest, ok := s.Latest("obj:apple")
	if !ok || latest.Step != 5 || latest.Payload != "kitchen" {
		t.Fatalf("Latest = %+v %v", latest, ok)
	}
	if _, ok := s.Latest("missing"); ok {
		t.Fatal("Latest of missing key should be !ok")
	}
}

func TestSince(t *testing.T) {
	s := NewStore(-1)
	for step := 0; step < 6; step++ {
		s.Add(rec(step, Dialogue, "", 2))
	}
	got := s.Since(3)
	if len(got) != 2 || got[0].Step != 4 {
		t.Fatalf("Since(3) = %+v", got)
	}
}

func TestClear(t *testing.T) {
	s := NewStore(-1)
	s.Add(rec(0, Observation, "k", 1))
	s.Clear()
	if s.Len() != 0 || s.HasKey("k") {
		t.Fatal("Clear incomplete")
	}
}

func TestAddAllOrder(t *testing.T) {
	s := NewStore(-1)
	s.AddAll([]Record{rec(0, Observation, "a", 1), rec(1, Observation, "b", 1)})
	got := s.Retrieve(1, 0)
	if len(got.Records) != 2 || got.Records[0].Key != "a" {
		t.Fatalf("AddAll order wrong: %+v", got.Records)
	}
}

func TestWindowProperty(t *testing.T) {
	// Property: retrieval never returns a record older than the window, and
	// token totals match the sum of returned records.
	f := func(capRaw uint8, steps uint8) bool {
		capacity := int(capRaw%20) + 1
		s := NewStore(capacity)
		n := int(steps%50) + 1
		for step := 0; step < n; step++ {
			s.Add(rec(step, Observation, "", 3))
		}
		got := s.Retrieve(n-1, 0)
		tok := 0
		for _, r := range got.Records {
			if r.Step <= n-1-capacity {
				return false
			}
			tok += r.Tokens
		}
		return tok == got.Tokens
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDualRoutesStaticToLongTerm(t *testing.T) {
	d := NewDual(3, 100)
	d.Add(Record{Step: 0, Key: "map:room1", Static: true, Tokens: 50})
	d.Add(rec(0, Observation, "obj:cup", 10)) // world fact: consolidates
	claim := rec(0, Action, "claim:0", 10)
	d.Add(claim) // intent: short-term
	if d.Long.Len() != 2 || d.Short.Len() != 1 {
		t.Fatalf("routing wrong: long=%d short=%d", d.Long.Len(), d.Short.Len())
	}
}

func TestDualDeduplicatesStatic(t *testing.T) {
	d := NewDual(3, 100)
	for i := 0; i < 5; i++ {
		d.Add(Record{Step: i, Key: "map:room1", Static: true, Tokens: 50})
	}
	if d.Long.Len() != 1 {
		t.Fatalf("static facts not deduped: %d", d.Long.Len())
	}
}

func TestDualCapsLongTermTokens(t *testing.T) {
	d := NewDual(5, 60)
	for i := 0; i < 10; i++ {
		d.Add(Record{Step: 0, Key: fmt.Sprintf("map:r%d", i), Static: true, Tokens: 40})
	}
	got := d.Retrieve(0, 0)
	// 400 raw long-term tokens capped at 60.
	if got.Tokens != 60 {
		t.Fatalf("long-term tokens = %d, want capped 60", got.Tokens)
	}
}

func TestDualRetrievalCheaperThanFlat(t *testing.T) {
	flat := NewStore(-1)
	dual := NewDual(5, 100)
	for step := 0; step < 100; step++ {
		r := rec(step, Observation, fmt.Sprintf("e%d", step), 8)
		flat.Add(r)
		dual.Add(r)
		st := Record{Step: step, Key: "map:layout", Static: true, Tokens: 30}
		flat.Add(st)
		dual.Add(st)
	}
	f := flat.Retrieve(99, 0)
	d := dual.Retrieve(99, 0)
	if d.Latency >= f.Latency {
		t.Fatalf("dual retrieval (%v) should beat flat (%v)", d.Latency, f.Latency)
	}
	if d.Tokens >= f.Tokens {
		t.Fatalf("dual tokens (%d) should beat flat (%d)", d.Tokens, f.Tokens)
	}
}

func TestDualClear(t *testing.T) {
	d := NewDual(3, 100)
	d.Add(Record{Step: 0, Key: "map", Static: true, Tokens: 5})
	d.Add(rec(0, Observation, "x", 5))
	d.Clear()
	if d.Long.Len() != 0 || d.Short.Len() != 0 {
		t.Fatal("Clear incomplete")
	}
}

func TestDualAddAll(t *testing.T) {
	d := NewDual(3, 100)
	d.AddAll([]Record{
		{Step: 0, Key: "map", Static: true, Tokens: 5},
		rec(0, Observation, "x", 5),
		rec(0, Dialogue, "", 5), // keyless chatter: short-term
	})
	if d.Long.Len() != 2 || d.Short.Len() != 1 {
		t.Fatalf("AddAll routing wrong: long=%d short=%d", d.Long.Len(), d.Short.Len())
	}
}

// seedRetrieve is Store.Retrieve as first written, appending the window
// into a growing slice; the differential tests hold the exact-size version
// to it.
func seedRetrieve(s *Store, currentStep int) Retrieval {
	var out []Record
	cut := -1
	if s.capacity > 0 {
		cut = currentStep - s.capacity
	}
	if s.capacity != 0 {
		for _, r := range s.records {
			if r.Step > cut || s.capacity < 0 {
				out = append(out, r)
			}
		}
	}
	ret := Retrieval{Records: out}
	for _, r := range out {
		ret.Tokens += r.Tokens
	}
	ret.Latency = retrievalBase + time.Duration(len(out))*retrievalPerRecord
	return ret
}

// seedDualRetrieve is Dual.Retrieve as first written, over seedRetrieve.
func seedDualRetrieve(d *Dual, currentStep int) Retrieval {
	long := seedRetrieve(d.Long, currentStep)
	short := seedRetrieve(d.Short, currentStep)
	tokens := long.Tokens
	if d.LongBudget > 0 && tokens > d.LongBudget {
		tokens = d.LongBudget
	}
	recs := make([]Record, 0, len(long.Records)+len(short.Records))
	recs = append(recs, long.Records...)
	recs = append(recs, short.Records...)
	return Retrieval{
		Records: recs,
		Tokens:  tokens + short.Tokens,
		Latency: retrievalBase + time.Duration(len(short.Records))*retrievalPerRecord,
	}
}

// randomRecord draws a record whose step may run behind the clock, as
// relayed dialogue does.
func randomRecord(r *rand.Rand, step int) Record {
	return Record{
		Step:    step - r.Intn(4),
		Kind:    Kind(r.Intn(3)),
		Key:     fmt.Sprintf("k%d", r.Intn(12)),
		Payload: r.Intn(3),
		Tokens:  1 + r.Intn(20),
		Static:  r.Intn(8) == 0,
		Routine: r.Intn(6) == 0,
	}
}

func TestRetrieveMatchesSeed(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		s := NewStore(r.Intn(12) - 2)
		d := NewDual(r.Intn(10)-1, r.Intn(200))
		steps := 1 + r.Intn(60)
		for step := 0; step < steps; step++ {
			for k := r.Intn(40); k > 0; k-- {
				rc := randomRecord(r, step)
				s.Add(rc)
				d.Add(rc)
			}
			if got, want := s.Retrieve(step, 0), seedRetrieve(s, step); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d cap %d: Store.Retrieve = %+v, want %+v", trial, step, s.capacity, got, want)
			}
			if got, want := d.Retrieve(step, 0), seedDualRetrieve(d, step); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d: Dual.Retrieve = %+v, want %+v", trial, step, got, want)
			}
		}
	}
}

func TestRetrieveAllocatesOnce(t *testing.T) {
	s := NewStore(8)
	d := NewDual(4, 100)
	for step := 0; step < 30; step++ {
		for k := 0; k < 20; k++ {
			rc := rec(step, Kind(k%3), fmt.Sprintf("k%d:%d", step, k), 5)
			rc.Static = k == 0
			s.Add(rc)
			d.Add(rc)
		}
	}
	if n := len(s.Retrieve(29, 0).Records); n != 160 {
		t.Fatalf("window holds %d records, want 160", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Retrieve(29, 0) }); n != 1 {
		t.Fatalf("Store.Retrieve allocs/run = %v, want exactly 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Retrieve(29, 0) }); n != 1 {
		t.Fatalf("Dual.Retrieve allocs/run = %v, want exactly 1", n)
	}
	if ret := s.Retrieve(29, 0); cap(ret.Records) != len(ret.Records) {
		t.Fatalf("Records cap %d, len %d: want exactly sized", cap(ret.Records), len(ret.Records))
	}
}

// TestRetrieveLeavesSpareRoom pins the spare-capacity contract: Records is
// the same window whatever the spare count, with exactly spare free slots
// past it, and appending into them leaves Records as it was.
func TestRetrieveLeavesSpareRoom(t *testing.T) {
	s := NewStore(4)
	d := NewDual(3, 50)
	for step := 0; step < 10; step++ {
		for k := 0; k < 5; k++ {
			rc := rec(step, Kind(k%3), fmt.Sprintf("k%d:%d", step, k), 5)
			rc.Static = k == 0
			s.Add(rc)
			d.Add(rc)
		}
	}
	empty := NewStore(4)
	for _, retrieve := range []func(step, spare int) Retrieval{s.Retrieve, d.Retrieve, empty.Retrieve} {
		for _, spare := range []int{0, 1, 7} {
			want := retrieve(9, 0)
			got := retrieve(9, spare)
			if got.Tokens != want.Tokens || got.Latency != want.Latency || len(got.Records) != len(want.Records) ||
				cap(got.Records) != len(want.Records)+spare {
				t.Fatalf("spare %d: len %d cap %d, want len %d cap %d", spare,
					len(got.Records), cap(got.Records), len(want.Records), len(want.Records)+spare)
			}
			window := slices.Clone(got.Records)
			fill := make([]Record, spare)
			for k := range fill {
				fill[k] = rec(99, Observation, "obs", 1)
			}
			if grown := append(got.Records, fill...); cap(grown) != cap(got.Records) {
				t.Fatalf("spare %d: appending %d records reallocated", spare, spare)
			}
			if !reflect.DeepEqual(got.Records, window) || (len(window) > 0 && !reflect.DeepEqual(window, want.Records)) {
				t.Fatalf("spare %d: Records %v, want %v", spare, got.Records, want.Records)
			}
		}
	}
}

// payloadSamples covers every kind SamePayload distinguishes: flat values
// (== path), composite ones (DeepEqual path), nil and mixed types.
func payloadSamples() []any {
	type flat struct {
		ID   int
		Name string
		At   [2]int
		V    float64
	}
	type deep struct {
		ID  int
		Tag *int
	}
	one, alsoOne := 1, 1
	nan := 0.0
	nan /= nan
	return []any{
		nil, 0, 1, int64(1), "", "a", "b", true, false, 2.5, nan,
		flat{1, "x", [2]int{1, 2}, 0.5}, flat{1, "x", [2]int{1, 2}, 0.5}, flat{1, "x", [2]int{2, 1}, 0.5},
		flat{V: nan}, [3]string{"a", "b", "c"},
		[]int{1, 2}, []int{1, 2}, []int(nil), map[string]int{"a": 1}, map[string]int{"a": 1}, map[string]int{},
		deep{1, &one}, deep{1, &alsoOne}, deep{1, nil}, &one, &alsoOne,
		struct{ X any }{1}, struct{ X any }{1}, struct{ X any }{"1"},
	}
}

func TestSamePayloadMatchesDeepEqual(t *testing.T) {
	vals := payloadSamples()
	for i, a := range vals {
		for j, b := range vals {
			if got, want := SamePayload(a, b), reflect.DeepEqual(a, b); got != want {
				t.Errorf("SamePayload(#%d %#v, #%d %#v) = %v, DeepEqual says %v", i, a, j, b, got, want)
			}
		}
	}
}

func TestSamePayloadFlatPathAllocatesNothing(t *testing.T) {
	type fact struct {
		ID   int
		Name string
	}
	a, b := any(fact{3, "soup"}), any(fact{3, "soup"})
	SamePayload(a, b) // fill the type cache
	if n := testing.AllocsPerRun(100, func() { SamePayload(a, b) }); n != 0 {
		t.Fatalf("SamePayload on a flat struct allocs/run = %v, want 0", n)
	}
}

func BenchmarkRetrieve(b *testing.B) {
	s := NewStore(8)
	for step := 0; step < 30; step++ {
		for k := 0; k < 20; k++ {
			s.Add(rec(step, Kind(k%3), fmt.Sprintf("k%d:%d", step, k), 5))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Retrieve(29, 0)
	}
}
