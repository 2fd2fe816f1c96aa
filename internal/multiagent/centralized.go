package multiagent

import (
	"embench/internal/core"
	"embench/internal/llm"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/modules/planning"
	"embench/internal/rng"
	"embench/internal/simclock"
	"embench/internal/trace"
)

// RunCentralized drives the centralized multi-agent paradigm (Fig. 1d):
// body agents sense and act; one central planner holds the memory, runs a
// single joint planning call per step, and broadcasts instructions through
// the communication module. LLM work per step is constant in team size
// (latency scales only through tokens), which is why centralized systems
// stay cheap as teams grow while their success collapses under joint
// reasoning complexity (Fig. 7a/7d).
func RunCentralized(d core.CentralDomain, cfg core.AgentConfig, opt Options) Outcome {
	n := d.Agents()
	src := rng.New(opt.Seed)
	tr := trace.New()
	timeline := simclock.New()
	endpoint := opt.newEndpoint(&cfg)

	// Body agents carry sensing and execution only.
	bodyCfg := cfg
	bodyCfg.Comms = nil
	bodyCfg.Reflector = nil
	bodyCfg.Memory = core.MemoryConfig{Capacity: 0}
	set := newAgentSet(n, bodyCfg, src, tr)

	centralClock := simclock.New()
	central := core.NewAgent(core.CentralAgent, cfg, src, centralClock, tr)
	central.Store.AddAll(d.StaticRecords())
	var instructClient *llm.Client
	if cfg.Comms != nil {
		instructClient = llm.NewClient(*cfg.Comms, src.NewStream("central/instruct"), centralClock, tr)
		if cfg.Backend != nil {
			instructClient.SetBackend(cfg.Backend)
		}
	}

	views := make([]core.Observation, n)
	for !d.Done() {
		step := d.Step()

		// Body sensing; local views stream to the central memory (cheap
		// telemetry, not LLM dialogue). The merged view is one exactly
		// sized slice, and views drops the per-agent slices once merged.
		set.beginPhase()
		var merged core.Observation
		size := 0
		for i, a := range set.agents {
			views[i] = a.Sense(d, step)
			size += len(views[i].Records)
			merged.Tokens += views[i].Tokens
			merged.Entities += views[i].Entities
		}
		set.endPhase(timeline, opt.Parallel)
		merged.Records = make([]memory.Record, 0, size)
		for _, v := range views {
			merged.Records = append(merged.Records, v.Records...)
		}
		clear(views)
		central.Store.AddAll(merged.Records)

		// One joint plan, then one instruction broadcast.
		centralMark := centralClock.Now()
		ret := central.Retrieve(step, len(merged.Records))
		pr := central.PlanJoint(d, step, ret, merged, nil)
		if instructClient != nil {
			instructClient.Complete(llm.Request{
				Agent: "central", Module: trace.Comms, Step: step, Kind: "instruct",
				Prompt: planning.Build(planning.Context{
					SystemTokens: cfg.SystemTokens, TaskTokens: cfg.TaskTokens / 2,
					ObsTokens: 40 * n,
				}),
				OutTokens: 30 + 12*n,
				Good:      true,
			})
		}
		timeline.Advance(centralClock.Now() - centralMark)

		// Body execution of the joint assignment.
		joint, _ := pr.Subgoal.(*core.Joint)
		anyFailed := false
		set.beginPhase()
		results := make([]execution.Result, n)
		for i, a := range set.agents {
			var sg core.Subgoal
			if joint != nil {
				sg = joint.Assign[i]
			}
			results[i] = a.Execute(d, step, core.PlanResult{Subgoal: sg, Proposal: pr.Proposal})
			if sg != nil && !results[i].Achieved {
				anyFailed = true
			}
		}
		set.endPhase(timeline, opt.Parallel)

		// Central reflection over the step's outcomes.
		centralMark = centralClock.Now()
		if joint != nil {
			central.Reflect(d, step, core.PlanResult{
				Subgoal: pr.Subgoal, Proposal: pr.Proposal, Corrupted: pr.Corrupted,
			}, execution.Result{Achieved: !anyFailed && !pr.Corrupted})
			if corr, ok := core.Domain(d).(core.Corrector); ok && cfg.Reflector != nil {
				for i := range set.agents {
					if sg := joint.Assign[i]; sg != nil && !results[i].Achieved {
						central.Store.AddAll(corr.CorrectionRecords(i, sg, results[i]))
					}
				}
			}
		}
		central.Remember(d, step, core.Observation{}, nil, pr, execution.Result{Achieved: !anyFailed})
		timeline.Advance(centralClock.Now() - centralMark)

		d.Tick()
	}
	return finish(d, tr, timeline, endpoint)
}
