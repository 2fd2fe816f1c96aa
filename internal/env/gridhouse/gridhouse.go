// Package gridhouse implements a multi-room, partially observable
// household gridworld — the suite's stand-in for VirtualHome, C-WAH and the
// TDW-MAT transport challenge (used by CoELA, OLA and DaDu-E in the paper's
// Table II).
//
// Agents search rooms for target objects and carry them to a goal zone.
// Visibility is room-scoped, so beliefs are built from remembered sightings
// and teammate messages; forgetting (small memory) costs re-exploration and
// stale fetches, exactly the mechanism behind the paper's Fig. 3 and Fig. 5
// memory results.
package gridhouse

import (
	"fmt"
	"strconv"

	"embench/internal/core"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/path/astar"
	"embench/internal/rng"
	"embench/internal/world"
)

// Grid geometry: a 25×25 house split into four rooms by walls with doors.
const (
	gridSize = 25
	wallLine = 12
)

// Token sizes for rendered facts.
const (
	objFactTokens   = 14
	agentFactTokens = 10
	roomFactTokens  = 6
	mapFactTokens   = 40
)

// Config parameterizes an episode.
type Config struct {
	Agents     int
	Difficulty world.Difficulty
	Horizon    int  // 0 = difficulty default
	Targets    int  // 0 = difficulty default
	HeavyGrasp bool // grasp-pose synthesis per pick/place (DaDu-E's AnyGrasp)
	Seed       string
}

// defaults returns targets and horizon for a difficulty.
func defaults(d world.Difficulty) (targets, horizon int) {
	switch d {
	case world.Easy:
		return 3, 50
	case world.Medium:
		return 6, 100
	default:
		return 10, 150
	}
}

// object is a transportable target.
type object struct {
	id        int
	key       string // memory key of its sightings, "obj:<id>"
	cell      world.Cell
	carriedBy int // -1 when on the floor
	delivered bool
}

// agentState is one robot's true state.
type agentState struct {
	cell     world.Cell
	carrying int // object id or -1
}

// House is the environment. It implements core.Domain and
// core.CentralDomain.
type House struct {
	cfg       Config
	grid      *world.Grid
	goalZone  []world.Cell
	objects   []*object
	agents    []agentState
	agentKeys []string // memory key of agent i's sightings, "agent:<i>"
	claimKeys []string // memory key of agent i's claims, "claim:<i>"
	step      int
	horizon   int
	delivered int
}

// roomKeys are the memory keys of room sightings, "room:<room>".
var roomKeys = [4]string{"room:0", "room:1", "room:2", "room:3"}

// ObjFact is the payload of an object sighting record. Gone marks
// negative evidence: the agent looked where it believed the object was and
// found nothing (a reflection-produced correction).
type ObjFact struct {
	ID        int
	Cell      world.Cell
	Delivered bool
	CarriedBy int
	Gone      bool
}

// AgentFact is the payload of a teammate sighting record.
type AgentFact struct {
	ID       int
	Cell     world.Cell
	Carrying int
}

// ClaimFact is the payload of a "working on object X" intent record.
type ClaimFact struct {
	Agent  int
	Object int
}

// New builds a house episode. Object placement derives from src, so a fixed
// seed yields a fixed task instance.
func New(cfg Config, src *rng.Source) *House {
	if cfg.Agents <= 0 {
		cfg.Agents = 1
	}
	targets, horizon := defaults(cfg.Difficulty)
	if cfg.Targets > 0 {
		targets = cfg.Targets
	}
	if cfg.Horizon > 0 {
		horizon = cfg.Horizon
	}
	h := &House{cfg: cfg, horizon: horizon}
	h.grid = world.NewGrid(gridSize, gridSize)
	// Walls with two doors each.
	for i := 0; i < gridSize; i++ {
		h.grid.SetBlocked(world.C(wallLine, i), true)
		h.grid.SetBlocked(world.C(i, wallLine), true)
	}
	for _, d := range []world.Cell{
		world.C(wallLine, 6), world.C(wallLine, 18),
		world.C(6, wallLine), world.C(18, wallLine),
	} {
		h.grid.SetBlocked(d, false)
	}
	h.goalZone = []world.Cell{world.C(2, 2), world.C(3, 2), world.C(2, 3), world.C(3, 3)}

	st := src.NewStream("gridhouse/" + cfg.Seed)
	used := map[world.Cell]bool{}
	for _, c := range h.goalZone {
		used[c] = true
	}
	for i := 0; i < targets; i++ {
		for {
			c := world.C(st.Pick(gridSize), st.Pick(gridSize))
			// Keep objects out of the goal room's corner so search matters.
			if h.grid.Blocked(c) || used[c] || (c.X < 6 && c.Y < 6) {
				continue
			}
			used[c] = true
			h.objects = append(h.objects, &object{id: i, key: "obj:" + strconv.Itoa(i), cell: c, carriedBy: -1})
			break
		}
	}
	for i := 0; i < cfg.Agents; i++ {
		h.agents = append(h.agents, agentState{cell: world.C(4+i%3, 4+i/3), carrying: -1})
		h.agentKeys = append(h.agentKeys, "agent:"+strconv.Itoa(i))
		h.claimKeys = append(h.claimKeys, "claim:"+strconv.Itoa(i))
	}
	return h
}

// roomOf classifies a cell into one of the four rooms (0..3); wall cells
// fold into the room on their lower side.
func roomOf(c world.Cell) int {
	r := 0
	if c.X > wallLine {
		r++
	}
	if c.Y > wallLine {
		r += 2
	}
	return r
}

// roomCenter is a representative reachable cell per room.
func roomCenter(room int) world.Cell {
	x, y := 6, 6
	if room%2 == 1 {
		x = 18
	}
	if room >= 2 {
		y = 18
	}
	return world.C(x, y)
}

// Name implements core.Domain.
func (h *House) Name() string { return "gridhouse" }

// Agents implements core.Domain.
func (h *House) Agents() int { return len(h.agents) }

// MaxSteps implements core.Domain.
func (h *House) MaxSteps() int { return h.horizon }

// Step implements core.Domain.
func (h *House) Step() int { return h.step }

// Done implements core.Domain.
func (h *House) Done() bool { return h.Success() || h.step >= h.horizon }

// Success implements core.Domain.
func (h *House) Success() bool { return h.delivered == len(h.objects) }

// Progress implements core.Domain.
func (h *House) Progress() float64 {
	if len(h.objects) == 0 {
		return 1
	}
	return float64(h.delivered) / float64(len(h.objects))
}

// AgentCell exposes an agent's true position (used in tests and examples).
func (h *House) AgentCell(agent int) world.Cell { return h.agents[agent].cell }

// Carrying exposes an agent's carried object id, -1 if none.
func (h *House) Carrying(agent int) int { return h.agents[agent].carrying }

// Delivered reports how many targets reached the goal zone.
func (h *House) Delivered() int { return h.delivered }

// Objects reports the total target count.
func (h *House) Objects() int { return len(h.objects) }

// StaticRecords implements core.Domain: the house layout is known a priori.
func (h *House) StaticRecords() []memory.Record {
	recs := make([]memory.Record, 0, 4)
	for r := 0; r < 4; r++ {
		recs = append(recs, memory.Record{
			Kind: memory.Observation, Key: fmt.Sprintf("map:room:%d", r),
			Payload: r, Tokens: mapFactTokens, Static: true,
		})
	}
	return recs
}

// Observe implements core.Domain: room-scoped visibility. It counts the
// visible entities first and fills one slice of exactly that length.
func (h *House) Observe(agent int) core.Observation {
	room := roomOf(h.agents[agent].cell)
	n := 1 // the room itself
	for _, o := range h.objects {
		if sees(agent, room, o) {
			n++
		}
	}
	for i, other := range h.agents {
		if i != agent && roomOf(other.cell) == room {
			n++
		}
	}
	obs := core.Observation{Records: make([]memory.Record, 0, n)}
	add := func(rec memory.Record) {
		obs.Records = append(obs.Records, rec)
		obs.Tokens += rec.Tokens
	}
	add(memory.Record{
		Step: h.step, Kind: memory.Observation, Key: roomKeys[room],
		Payload: room, Tokens: roomFactTokens,
	})
	for _, o := range h.objects {
		if !sees(agent, room, o) {
			continue
		}
		obs.Entities++
		add(memory.Record{
			Step: h.step, Kind: memory.Observation, Key: o.key,
			Payload: ObjFact{ID: o.id, Cell: o.cell, Delivered: o.delivered, CarriedBy: o.carriedBy},
			Tokens:  objFactTokens,
		})
	}
	for i, other := range h.agents {
		if i == agent || roomOf(other.cell) != room {
			continue
		}
		obs.Entities++
		add(memory.Record{
			Step: h.step, Kind: memory.Observation, Key: h.agentKeys[i],
			Payload: AgentFact{ID: i, Cell: other.cell, Carrying: other.carrying},
			Tokens:  agentFactTokens, Routine: true,
		})
	}
	return obs
}

// sees reports whether agent, standing in room, observes o: an object on
// the floor of the same room, or the one it carries.
func sees(agent, room int, o *object) bool {
	return o.carriedBy == agent || o.carriedBy == -1 && roomOf(o.cell) == room
}

// belief is the domain-specific belief payload.
type belief struct {
	objects map[int]ObjFact // latest believed object facts
	objStep map[int]int     // step of the latest sighting
	visited map[int]int     // room -> latest visit step
	claims  map[int]int     // agent -> object currently claimed
}

// BuildBelief implements core.Domain.
func (h *House) BuildBelief(agent int, recs []memory.Record) core.Belief {
	b := belief{
		objects: map[int]ObjFact{},
		objStep: map[int]int{},
		visited: map[int]int{},
		claims:  map[int]int{},
	}
	for _, r := range recs {
		switch p := r.Payload.(type) {
		case ObjFact:
			if r.Step >= b.objStep[p.ID] {
				if p.Gone {
					delete(b.objects, p.ID)
				} else {
					b.objects[p.ID] = p
				}
				b.objStep[p.ID] = r.Step
			}
		case int:
			// Room visit or static map fact.
			if cur, ok := b.visited[p]; !ok || r.Step > cur {
				if r.Static {
					continue // map knowledge, not a visit
				}
				b.visited[p] = r.Step
			}
		case ClaimFact:
			b.claims[p.Agent] = p.Object
		}
	}
	// Staleness: fraction of believed-fetchable objects that are actually
	// gone (delivered or picked up by someone else since last seen).
	known, stale := 0, 0
	//detlint:allow maprange counting loop; only totals leave it
	for id, f := range b.objects {
		if f.Delivered || (f.CarriedBy != -1 && f.CarriedBy != agent) {
			continue
		}
		known++
		truth := h.objects[id]
		if truth.delivered || (truth.carriedBy != -1 && truth.carriedBy != agent) || truth.cell != f.Cell {
			stale++
		}
	}
	st := 0.0
	if known > 0 {
		st = float64(stale) / float64(known)
	}
	return core.Belief{Payload: b, Staleness: st}
}

// Subgoal types.

// Fetch directs the agent to pick up an object at its believed location.
type Fetch struct {
	Obj  int
	Cell world.Cell
}

// ID implements core.Subgoal.
func (f Fetch) ID() string { return fmt.Sprintf("fetch:%d", f.Obj) }

// Describe implements core.Subgoal.
func (f Fetch) Describe() string { return fmt.Sprintf("fetch object %d at %v", f.Obj, f.Cell) }

// Deliver directs the agent to carry its object to the goal zone.
type Deliver struct{}

// ID implements core.Subgoal.
func (Deliver) ID() string { return "deliver" }

// Describe implements core.Subgoal.
func (Deliver) Describe() string { return "deliver carried object to goal zone" }

// Explore directs the agent to sweep a room.
type Explore struct{ Room int }

// ID implements core.Subgoal.
func (e Explore) ID() string { return fmt.Sprintf("explore:%d", e.Room) }

// Describe implements core.Subgoal.
func (e Explore) Describe() string { return fmt.Sprintf("explore room %d", e.Room) }

// Propose implements core.Domain: the expert decision for one agent's
// belief, with the corruptions a weaker model plausibly produces.
func (h *House) Propose(agent int, bel core.Belief) core.Proposal {
	b, _ := bel.Payload.(belief)
	a := h.agents[agent]
	prop := core.Proposal{Complexity: core.DecentralizedComplexity(len(h.agents))}

	if a.carrying != -1 {
		prop.Good = Deliver{}
		prop.Corruptions = h.corruptions(agent, b, -1)
		return prop
	}
	// Nearest believed-available object not claimed by a teammate; ties
	// break toward the lower id so the pick never depends on map order.
	best, bestDist := -1, 1<<30
	var bestCell world.Cell
	for _, id := range world.SortedKeys(b.objects) {
		f := b.objects[id]
		if f.Delivered || (f.CarriedBy != -1 && f.CarriedBy != agent) {
			continue
		}
		if claimedByOther(b.claims, agent, id) {
			continue
		}
		if d := world.Manhattan(a.cell, f.Cell); d < bestDist {
			best, bestDist, bestCell = id, d, f.Cell
		}
	}
	if best >= 0 {
		prop.Good = Fetch{Obj: best, Cell: bestCell}
		prop.Corruptions = h.corruptions(agent, b, best)
		return prop
	}
	// Nothing known: explore the stalest room.
	room := h.exploreTarget(agent, b)
	prop.Good = Explore{Room: room}
	prop.Corruptions = h.corruptions(agent, b, -1)
	return prop
}

// exploreTarget picks the never-visited or least-recently-visited room,
// preferring proximity on ties.
func (h *House) exploreTarget(agent int, b belief) int {
	a := h.agents[agent]
	bestRoom, bestScore := 0, 1<<30
	for r := 0; r < 4; r++ {
		visitStep, seen := b.visited[r]
		score := 0
		if seen {
			score = 1000 + visitStep*10
		}
		score += world.Manhattan(a.cell, roomCenter(r)) / 4
		if score < bestScore {
			bestRoom, bestScore = r, score
		}
	}
	return bestRoom
}

// corruptions enumerates plausible wrong decisions given the belief:
// fetching a finished or teammate-claimed object, re-exploring a fresh
// room, or delivering empty-handed.
func (h *House) corruptions(agent int, b belief, goodObj int) []core.Subgoal {
	var out []core.Subgoal
	ids := world.SortedKeys(b.objects)
	for _, id := range ids {
		if id == goodObj {
			continue
		}
		if f := b.objects[id]; f.Delivered {
			out = append(out, Fetch{Obj: id, Cell: f.Cell})
			break
		}
	}
	for _, id := range ids {
		if f := b.objects[id]; id != goodObj && claimedByOther(b.claims, agent, id) && !f.Delivered {
			out = append(out, Fetch{Obj: id, Cell: f.Cell})
			break
		}
	}
	// Re-explore the most recently visited room (wasted sweep); ties break
	// toward the lower room index.
	freshRoom, freshStep := -1, -1
	for _, r := range world.SortedKeys(b.visited) {
		if s := b.visited[r]; s > freshStep {
			freshRoom, freshStep = r, s
		}
	}
	if freshRoom >= 0 {
		out = append(out, Explore{Room: freshRoom})
	}
	if h.agents[agent].carrying == -1 {
		out = append(out, Deliver{})
	}
	if len(out) == 0 {
		out = append(out, Explore{Room: roomOf(h.agents[agent].cell)})
	}
	return out
}

// roomsByStaleness orders the four rooms for exploration: never-visited
// rooms first, then by oldest visit.
func roomsByStaleness(b belief) [4]int {
	score := func(r int) int {
		if step, ok := b.visited[r]; ok {
			return step + 1
		}
		return 0
	}
	rooms := [4]int{0, 1, 2, 3}
	for i := 1; i < 4; i++ {
		for j := i; j > 0 && score(rooms[j]) < score(rooms[j-1]); j-- {
			rooms[j], rooms[j-1] = rooms[j-1], rooms[j]
		}
	}
	return rooms
}

func claimedByOther(claims map[int]int, agent, obj int) bool {
	//detlint:allow maprange existence check; any order yields the same answer
	for a, o := range claims {
		if a != agent && o == obj {
			return true
		}
	}
	return false
}

// Execute implements core.Domain.
func (h *House) Execute(agent int, g core.Subgoal) execution.Result {
	switch sg := g.(type) {
	case Fetch:
		return h.execFetch(agent, sg)
	case Deliver:
		return h.execDeliver(agent)
	case Explore:
		return h.execExplore(agent, sg)
	case nil:
		return execution.Result{Note: "idle"}
	default:
		return execution.Result{Note: "unknown subgoal"}
	}
}

func (h *House) execFetch(agent int, sg Fetch) execution.Result {
	a := &h.agents[agent]
	res := h.moveTo(agent, sg.Cell)
	if !res.Achieved {
		return res
	}
	res.Effort.Primitives++ // grasp attempt
	if h.cfg.HeavyGrasp {
		res.Effort.GraspOps++
	}
	if sg.Obj < 0 || sg.Obj >= len(h.objects) {
		res.Achieved = false
		res.Note = "no such object"
		return res
	}
	o := h.objects[sg.Obj]
	if o.delivered || o.carriedBy != -1 || o.cell != a.cell || a.carrying != -1 {
		res.Achieved = false
		res.Note = "object not available here"
		return res
	}
	o.carriedBy = agent
	a.carrying = o.id
	res.Achieved = true
	return res
}

func (h *House) execDeliver(agent int) execution.Result {
	a := &h.agents[agent]
	target := h.nearestGoalCell(a.cell)
	res := h.moveTo(agent, target)
	if !res.Achieved {
		return res
	}
	res.Effort.Primitives++ // place attempt
	if h.cfg.HeavyGrasp {
		res.Effort.GraspOps++
	}
	if a.carrying == -1 {
		res.Achieved = false
		res.Note = "nothing to deliver"
		return res
	}
	o := h.objects[a.carrying]
	o.carriedBy = -1
	o.cell = a.cell
	o.delivered = true
	h.delivered++
	a.carrying = -1
	res.Achieved = true
	return res
}

func (h *House) execExplore(agent int, sg Explore) execution.Result {
	if sg.Room < 0 || sg.Room > 3 {
		return execution.Result{Note: "no such room"}
	}
	res := h.moveTo(agent, roomCenter(sg.Room))
	res.Effort.Primitives++ // sweep scan
	return res
}

// moveTo walks the agent along an A* path, charging planner and actuation
// effort. Carried objects follow the agent.
func (h *House) moveTo(agent int, target world.Cell) execution.Result {
	a := &h.agents[agent]
	plan := astar.Plan(h.grid, a.cell, target)
	res := execution.Result{Effort: execution.Effort{AStarExpanded: plan.Expanded}}
	if !plan.Found {
		res.Note = "unreachable"
		return res
	}
	res.Effort.Primitives += len(plan.Path) - 1
	a.cell = target
	if a.carrying != -1 {
		h.objects[a.carrying].cell = target
	}
	res.Achieved = true
	return res
}

func (h *House) nearestGoalCell(from world.Cell) world.Cell {
	best, bestD := h.goalZone[0], 1<<30
	for _, c := range h.goalZone {
		if d := world.Manhattan(from, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Tick implements core.Domain.
func (h *House) Tick() { h.step++ }

// ProposeJoint implements core.CentralDomain: a greedy joint assignment
// over the merged belief — carriers deliver, idle agents take the nearest
// unassigned objects, leftovers explore distinct rooms.
func (h *House) ProposeJoint(bel core.Belief) core.Proposal {
	b, _ := bel.Payload.(belief)
	n := len(h.agents)
	good := &core.Joint{Assign: map[int]core.Subgoal{}}
	taken := map[int]bool{}
	staleRooms := roomsByStaleness(b)
	exploreNext := 0
	for i := 0; i < n; i++ {
		if h.agents[i].carrying != -1 {
			good.Assign[i] = Deliver{}
			continue
		}
		best, bestDist := -1, 1<<30
		var bestCell world.Cell
		for _, id := range world.SortedKeys(b.objects) {
			f := b.objects[id]
			if f.Delivered || f.CarriedBy != -1 || taken[id] {
				continue
			}
			if d := world.Manhattan(h.agents[i].cell, f.Cell); d < bestDist {
				best, bestDist, bestCell = id, d, f.Cell
			}
		}
		if best >= 0 {
			taken[best] = true
			good.Assign[i] = Fetch{Obj: best, Cell: bestCell}
			continue
		}
		good.Assign[i] = Explore{Room: staleRooms[exploreNext%4]}
		exploreNext++
	}
	// Corruptions: collapse the assignment onto one object (duplicated
	// work), or send everyone exploring (ignores known objects).
	dup := &core.Joint{Assign: map[int]core.Subgoal{}}
	allExplore := &core.Joint{Assign: map[int]core.Subgoal{}}
	var anyFetch core.Subgoal
	for i := 0; i < n; i++ {
		if f, ok := good.Assign[i].(Fetch); ok {
			anyFetch = f
			break
		}
	}
	for i := 0; i < n; i++ {
		if anyFetch != nil {
			dup.Assign[i] = anyFetch
		} else {
			dup.Assign[i] = Explore{Room: 0}
		}
		allExplore.Assign[i] = Explore{Room: i % 4}
	}
	return core.Proposal{
		Good:        good,
		Corruptions: []core.Subgoal{dup, allExplore},
		Complexity:  core.CentralizedComplexity(n),
	}
}

// ClaimRecord implements core.Claimer: a fetch claims its object; any
// other decision clears the agent's claim.
func (h *House) ClaimRecord(agent int, g core.Subgoal) (memory.Record, bool) {
	obj := -1
	if f, ok := g.(Fetch); ok {
		obj = f.Obj
	}
	return memory.Record{
		Kind: memory.Action, Key: h.claimKey(agent),
		Payload: ClaimFact{Agent: agent, Object: obj}, Tokens: 8,
	}, true
}

// claimKey is agent's claim key; the central planner's is built on demand.
func (h *House) claimKey(agent int) string {
	if agent >= 0 && agent < len(h.claimKeys) {
		return h.claimKeys[agent]
	}
	return "claim:" + strconv.Itoa(agent)
}

// CorrectionRecords implements core.Corrector: a fetch that found nothing
// yields negative evidence ("the object is gone from that cell"), which
// removes the stale sighting from future beliefs.
func (h *House) CorrectionRecords(agent int, g core.Subgoal, res execution.Result) []memory.Record {
	f, ok := g.(Fetch)
	if !ok || res.Achieved {
		return nil
	}
	return []memory.Record{{
		Step: h.step, Kind: memory.Action, Key: h.objects[f.Obj].key,
		Payload: ObjFact{ID: f.Obj, Cell: f.Cell, Gone: true}, Tokens: 8,
	}}
}

var (
	_ core.Domain        = (*House)(nil)
	_ core.CentralDomain = (*House)(nil)
	_ core.Claimer       = (*House)(nil)
	_ core.Corrector     = (*House)(nil)
)
