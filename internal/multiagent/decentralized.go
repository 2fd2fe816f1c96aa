package multiagent

import (
	"embench/internal/core"
	"embench/internal/llm"
	"embench/internal/rng"
	"embench/internal/simclock"
	"embench/internal/trace"
)

// RunDecentralized drives the decentralized multi-agent paradigm
// (Fig. 1e): every agent runs its own full module stack; dialogue proceeds
// in rounds of turn-taking broadcast, then each agent plans and acts.
//
// With Options.ClusterSize > 0 the topology becomes hierarchical (Rec. 9):
// broadcasts stay within clusters and only cluster heads exchange digests,
// cutting message traffic from O(n²) toward O(n·k + (n/k)²).
func RunDecentralized(d core.Domain, cfg core.AgentConfig, opt Options) Outcome {
	n := d.Agents()
	src := rng.New(opt.Seed)
	tr := trace.New()
	timeline := simclock.New()
	endpoint := opt.newEndpoint(&cfg)
	set := newAgentSet(n, cfg, src, tr)
	for _, a := range set.agents {
		a.Store.AddAll(d.StaticRecords())
	}
	// Dialogue rounds track the size of the group that must converge: the
	// full team when flat, one cluster under the hierarchical paradigm
	// (Rec. 9's core coordination saving).
	roundsOver := n
	if opt.ClusterSize > 0 && opt.ClusterSize < n {
		roundsOver = opt.ClusterSize
	}
	rounds := opt.rounds(roundsOver)

	for !d.Done() {
		step := d.Step()

		// Sensing phase (independent per agent).
		set.beginPhase()
		obs := make([]core.Observation, n)
		for i, a := range set.agents {
			obs[i] = a.Sense(d, step)
			a.Store.AddAll(obs[i].Records)
		}
		set.endPhase(timeline, opt.Parallel)

		// Dialogue rounds: agents take turns broadcasting; each message is
		// generated by the comms LLM and judged for novelty at delivery.
		if cfg.Comms != nil && !cfg.PlanThenComm {
			dialogueTokens := 0
			for r := 0; r < rounds; r++ {
				set.beginPhase()
				for i, a := range set.agents {
					msg, ok := a.ComposeMessage(step, obs[i], dialogueTokens)
					if !ok {
						continue
					}
					recipients := recipientsOf(set.agents, i, opt.ClusterSize)
					useful := deliver(msg, recipients)
					a.MarkMessageUseful(step, useful)
					dialogueTokens += msg.Tokens
				}
				// Turn-taking rounds are inherently sequential.
				set.endPhase(timeline, false)
			}
		}

		// Plan + execute + reflect (independent per agent). With
		// opt.Aggregate the whole team's planning queries leave as explicit
		// phase batches (Rec. 1's step-phase query aggregation) instead of
		// one request per agent; otherwise each agent's module chain runs
		// back to back, and a shared endpoint sees the calls only through
		// its join window.
		set.beginPhase()
		if opt.Aggregate {
			aggregatedPlanPhase(d, set, step, obs, cfg, opt)
		} else {
			for i, a := range set.agents {
				ret := a.Retrieve(step, len(obs[i].Records))
				pr := a.Plan(d, step, ret, obs[i], nil)
				finishAgentStep(d, set, i, step, obs[i], pr, cfg, opt)
			}
		}
		set.endPhase(timeline, opt.Parallel)

		d.Tick()
	}
	return finish(d, tr, timeline, endpoint)
}

// aggregatedPlanPhase runs one step's plan/execute/reflect phase with
// step-phase query aggregation (Rec. 1 end to end): every agent's planning
// query — and, for ActSelect configs, the follow-up action-selection query
// — is prepared first, then the whole phase leaves as one explicit batch
// via llm.CompleteBatchMulti. Per-agent RNG streams are consumed in the
// same order as the per-agent path, and executions still apply in agent
// order. The whole team plans before anyone acts — the simultaneous-step
// reading of a phase — so the only decision input that can shift relative
// to the per-agent path is belief staleness, which domains assess against
// the live world and now see at the step's start for every agent.
//
// Composition caveat: under PlanThenComm the announcement an agent makes
// is delivered after the whole team has planned, so teammates see it one
// step later than in the per-agent path.
func aggregatedPlanPhase(d core.Domain, set *agentSet, step int, obs []core.Observation,
	cfg core.AgentConfig, opt Options) {

	n := len(set.agents)
	prs := make([]core.PlanResult, n)
	preps := make([]core.PlanPrep, n)
	var clients []*llm.Client
	var reqs []llm.Request
	var idx []int
	for i, a := range set.agents {
		ret := a.Retrieve(step, len(obs[i].Records))
		preps[i] = a.PreparePlan(d, step, ret, obs[i], nil)
		if preps[i].Ready {
			prs[i] = preps[i].Result
			continue
		}
		clients = append(clients, a.PlanClient())
		reqs = append(reqs, preps[i].Req)
		idx = append(idx, i)
	}
	resps := llm.CompleteBatchMulti(clients, reqs)
	var selClients []*llm.Client
	var selReqs []llm.Request
	var selIdx []int
	for k, i := range idx {
		pr, selReq, needSel := set.agents[i].FinishPlan(preps[i], resps[k])
		prs[i] = pr
		if needSel {
			selClients = append(selClients, set.agents[i].PlanClient())
			selReqs = append(selReqs, selReq)
			selIdx = append(selIdx, i)
		}
	}
	// Second phase batch: the act-select calls that depend on the plans.
	selResps := llm.CompleteBatchMulti(selClients, selReqs)
	for k, i := range selIdx {
		prs[i] = set.agents[i].FinishActSelect(prs[i], selResps[k])
	}
	for i := range set.agents {
		finishAgentStep(d, set, i, step, obs[i], prs[i], cfg, opt)
	}
}

// finishAgentStep is the post-plan tail of one agent's step, shared by the
// per-agent and aggregated paths so they cannot drift: the
// plan-then-communicate announcement gate (Rec. 8 — only message when the
// plan produced a new commitment worth announcing), execution, reflection
// and the memory commit.
func finishAgentStep(d core.Domain, set *agentSet, i, step int, obs core.Observation,
	pr core.PlanResult, cfg core.AgentConfig, opt Options) {

	a := set.agents[i]
	if cfg.Comms != nil && cfg.PlanThenComm && a.ShouldAnnounce(pr.Subgoal) {
		if msg, ok := a.ComposeMessage(step, obs, 0); ok {
			useful := deliver(msg, recipientsOf(set.agents, i, opt.ClusterSize))
			a.MarkMessageUseful(step, useful)
		}
	}
	res := a.Execute(d, step, pr)
	a.Reflect(d, step, pr, res)
	a.Remember(d, step, core.Observation{}, nil, pr, res)
}

// recipientsOf selects broadcast targets under the flat or clustered
// topology. Cluster heads are the first agent of each cluster; they also
// relay to other heads.
func recipientsOf(agents []*core.Agent, sender, clusterSize int) []*core.Agent {
	if clusterSize <= 0 || clusterSize >= len(agents) {
		return agents
	}
	cluster := sender / clusterSize
	var out []*core.Agent
	for i, a := range agents {
		if i == sender {
			continue
		}
		sameCluster := i/clusterSize == cluster
		bothHeads := sender%clusterSize == 0 && i%clusterSize == 0
		if sameCluster || bothHeads {
			out = append(out, a)
		}
	}
	return out
}
