package multiagent

import (
	"embench/internal/core"
	"embench/internal/llm"
	"embench/internal/modules/planning"
	"embench/internal/rng"
	"embench/internal/simclock"
	"embench/internal/trace"
)

// RunSingle drives a single-agent modular episode (paradigm of Fig. 1b):
// sense → retrieve → plan → execute → reflect → remember, per step.
func RunSingle(d core.Domain, cfg core.AgentConfig, opt Options) Outcome {
	src := rng.New(opt.Seed)
	tr := trace.New()
	clock := simclock.New()
	endpoint := opt.newEndpoint(&cfg)
	agent := core.NewAgent(0, cfg, src, clock, tr)
	agent.Store.AddAll(d.StaticRecords())

	for !d.Done() {
		step := d.Step()
		obs := agent.Sense(d, step)
		ret := agent.Retrieve(step, len(obs.Records))
		pr := agent.Plan(d, step, ret, obs, nil)
		res := agent.Execute(d, step, pr)
		agent.Reflect(d, step, pr, res)
		agent.Remember(d, step, obs, nil, pr, res)
		d.Tick()
	}
	return finish(d, tr, clock, endpoint)
}

// RunEndToEnd drives the end-to-end paradigm (Fig. 1c): a single
// vision-language-action model maps each observation directly to an
// action — no memory, communication or reflection modules, and short
// action-token generations.
func RunEndToEnd(d core.Domain, cfg core.AgentConfig, opt Options) Outcome {
	src := rng.New(opt.Seed)
	tr := trace.New()
	clock := simclock.New()
	// The VLA model is monolithic: strip the modular stack.
	cfg.Comms = nil
	cfg.Reflector = nil
	cfg.Memory = core.MemoryConfig{Capacity: 0}
	cfg.Execution = true
	endpoint := opt.newEndpoint(&cfg)
	agent := core.NewAgent(0, cfg, src, clock, tr)
	client := llm.NewClient(cfg.Planner, src.NewStream("vla"), clock, tr)
	if cfg.Backend != nil {
		client.SetBackend(cfg.Backend)
	}

	for !d.Done() {
		step := d.Step()
		obs := agent.Sense(d, step)
		belief := d.BuildBelief(0, obs.Records)
		proposal := d.Propose(0, belief)
		resp := client.Complete(llm.Request{
			Agent: "agent0", Module: trace.Planning, Step: step, Kind: "vla",
			Prompt: planning.Build(planning.Context{
				SystemTokens: 40, TaskTokens: 30, ObsTokens: obs.Tokens,
			}),
			OutTokens: planning.PrimitiveOutTokens,
			Good:      proposal.Good, Corruptions: jointAny(proposal.Corruptions),
			Staleness: belief.Staleness,
		})
		pr := core.PlanResult{Proposal: proposal, Corrupted: resp.Corrupted, UsedLLM: true}
		pr.Subgoal, _ = resp.Decision.(core.Subgoal)
		agent.Execute(d, step, pr)
		d.Tick()
	}
	return finish(d, tr, clock, endpoint)
}

func jointAny(gs []core.Subgoal) []any {
	out := make([]any, len(gs))
	for i, g := range gs {
		out[i] = g
	}
	return out
}
