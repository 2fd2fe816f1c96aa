package systems

import (
	"fmt"
	"reflect"
	"testing"

	"embench/internal/core"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/multiagent"
	"embench/internal/rng"
	"embench/internal/world"
)

// payloadLog collects distinct record payloads per dynamic type.
type payloadLog struct {
	byType map[reflect.Type][]any
	seen   map[string]bool
}

const payloadsPerType = 32

func (l *payloadLog) note(recs []memory.Record) {
	for _, r := range recs {
		id := fmt.Sprintf("%T %#v", r.Payload, r.Payload)
		if l.seen[id] {
			continue
		}
		l.seen[id] = true
		t := reflect.TypeOf(r.Payload)
		if len(l.byType[t]) < payloadsPerType {
			l.byType[t] = append(l.byType[t], r.Payload)
		}
	}
}

// recordingDomain passes every call through to the wrapped domain and logs
// the payloads of every record the agents build beliefs from — memory
// windows (observations, dialogue, actions, claims, corrections) and fresh
// observations alike.
type recordingDomain struct {
	core.Domain
	log *payloadLog
}

func (d *recordingDomain) StaticRecords() []memory.Record {
	recs := d.Domain.StaticRecords()
	d.log.note(recs)
	return recs
}

func (d *recordingDomain) BuildBelief(agent int, recs []memory.Record) core.Belief {
	d.log.note(recs)
	return d.Domain.BuildBelief(agent, recs)
}

func (d *recordingDomain) ClaimRecord(agent int, g core.Subgoal) (memory.Record, bool) {
	if c, ok := d.Domain.(core.Claimer); ok {
		return c.ClaimRecord(agent, g)
	}
	return memory.Record{}, false
}

func (d *recordingDomain) CorrectionRecords(agent int, g core.Subgoal, res execution.Result) []memory.Record {
	if c, ok := d.Domain.(core.Corrector); ok {
		return c.CorrectionRecords(agent, g, res)
	}
	return nil
}

type recordingCentral struct{ *recordingDomain }

func (d recordingCentral) ProposeJoint(b core.Belief) core.Proposal {
	return d.Domain.(core.CentralDomain).ProposeJoint(b)
}

// TestSamePayloadOnEmittedPayloads runs one episode of every system and
// checks memory.SamePayload against reflect.DeepEqual on all pairs of the
// payloads the six domains emitted.
func TestSamePayloadOnEmittedPayloads(t *testing.T) {
	log := &payloadLog{byType: map[reflect.Type][]any{}, seen: map[string]bool{}}
	envs := map[string]bool{}
	for _, name := range SuiteNames {
		w := Suite[name]
		plain := w.Run(world.Medium, 0, multiagent.Options{Seed: 2})
		newDomain := w.NewDomain
		w.NewDomain = func(agents int, diff world.Difficulty, src *rng.Source) core.Domain {
			d := &recordingDomain{Domain: newDomain(agents, diff, src), log: log}
			if _, ok := d.Domain.(core.CentralDomain); ok {
				return recordingCentral{d}
			}
			return d
		}
		before := len(log.seen)
		if got := w.Run(world.Medium, 0, multiagent.Options{Seed: 2}); !reflect.DeepEqual(got, plain) {
			t.Fatalf("%s: recording the domain changed the episode", name)
		}
		if len(log.seen) > before {
			envs[w.EnvName] = true
		}
	}
	if len(envs) != 6 {
		t.Fatalf("payloads came from %d environments, want all 6: %v", len(envs), envs)
	}
	var all []any
	for _, vs := range log.byType {
		all = append(all, vs...)
	}
	if len(log.byType) < 16 { // 12 fact structs, int, string, []int, map[craftworld.Item]int
		t.Fatalf("only %d payload types collected", len(log.byType))
	}
	for _, a := range all {
		for _, b := range all {
			if got, want := memory.SamePayload(a, b), reflect.DeepEqual(a, b); got != want {
				t.Fatalf("SamePayload(%#v, %#v) = %v, DeepEqual says %v", a, b, got, want)
			}
		}
	}
}
