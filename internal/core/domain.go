// Package core defines the embodied-agent core: the Domain contract every
// environment implements, the agent configuration describing which of the
// six building blocks are present (paper Fig. 1a), and the per-agent
// plan–act pipeline of the modularized paradigm (Fig. 1b) plus the
// end-to-end paradigm (Fig. 1c). Multi-agent coordination layers on top in
// package multiagent.
package core

import (
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
)

// CentralAgent is the pseudo-agent index used by centralized planners: a
// belief built for CentralAgent spans every agent's shared knowledge.
const CentralAgent = -1

// Observation is what one agent perceives at the current step, already
// rendered to memory records. Entities sizes the sensing backend's
// inference cost; Tokens sizes the prompt section.
type Observation struct {
	Records  []memory.Record
	Entities int
	Tokens   int
}

// Belief is an agent's working model of the world, assembled by the domain
// from memory records. Staleness estimates the probability that
// goal-relevant parts of the belief no longer match reality — it feeds the
// LLM error channel.
type Belief struct {
	Payload   any
	Staleness float64
}

// Subgoal is a high-level decision: what the planning module emits and the
// execution module grounds into primitives.
type Subgoal interface {
	// ID identifies the decision for claim tracking, repeat detection and
	// failure records, e.g. "fetch:obj3".
	ID() string
	// Describe renders the decision for logs.
	Describe() string
}

// Proposal is the expert oracle's answer for a given belief: the decision a
// highly capable model would make, plausible corruptions a weaker or
// confused model might make instead, and the intrinsic reasoning
// complexity of the query (which grows with joint-action spaces).
type Proposal struct {
	Good        Subgoal
	Corruptions []Subgoal
	Complexity  float64
}

// Domain is the contract between environments and the agent runtime.
//
// The runtime drives it as: for each step, per agent — Observe, BuildBelief
// (over retrieved memory + fresh observation records), Propose, pass the
// proposal through the simulated LLM, Execute the resulting subgoal — then
// Tick once all agents acted.
type Domain interface {
	// Name identifies the environment ("gridhouse", "kitchen", ...).
	Name() string
	// Agents reports the number of embodied agents.
	Agents() int
	// MaxSteps is the episode step cap (the paper's Lmax).
	MaxSteps() int
	// Step reports the current step index, starting at 0.
	Step() int
	// Done reports whether the episode ended (success or cap).
	Done() bool
	// Success reports goal achievement.
	Success() bool
	// Progress reports fractional goal completion in [0,1].
	Progress() float64
	// Observe renders agent's current partial view.
	Observe(agent int) Observation
	// StaticRecords returns the a-priori knowledge every agent starts with
	// (map layout, station list). These are Static records for Rec. 5.
	StaticRecords() []memory.Record
	// BuildBelief folds records (memory window + current observation) into
	// a belief for the agent. agent may be CentralAgent. recs shares its
	// backing array with the step's memory retrieval, so BuildBelief must
	// not modify it.
	BuildBelief(agent int, recs []memory.Record) Belief
	// Propose computes the oracle decision for the belief.
	Propose(agent int, b Belief) Proposal
	// Execute grounds a subgoal into primitives against the true world.
	Execute(agent int, g Subgoal) execution.Result
	// Tick advances environment dynamics and the step counter.
	Tick()
}

// CentralDomain is implemented by domains that support the centralized
// paradigm (Fig. 1d): one planner assigns subgoals to every agent at once.
type CentralDomain interface {
	Domain
	// ProposeJoint computes a joint assignment for all agents from the
	// central belief. Good and Corruptions are *Joint values.
	ProposeJoint(b Belief) Proposal
}

// Joint is a centralized planner's joint decision: one subgoal per agent.
type Joint struct {
	Assign map[int]Subgoal
}

// ID concatenates the per-agent decisions in agent order.
func (j *Joint) ID() string {
	out := "joint"
	for i := 0; i < len(j.Assign); i++ {
		if g, ok := j.Assign[i]; ok && g != nil {
			out += "|" + g.ID()
		} else {
			out += "|idle"
		}
	}
	return out
}

// Describe renders the joint decision.
func (j *Joint) Describe() string { return j.ID() }

var _ Subgoal = (*Joint)(nil)
