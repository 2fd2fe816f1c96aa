package serve

import (
	"fmt"
	"math"
	"sort"
	"time"

	"embench/internal/prompt"
	"embench/internal/rng"
)

// ArrivalKind selects the arrival process a traffic stream draws request
// times from.
type ArrivalKind string

const (
	// ArrivePoisson is a homogeneous Poisson process per tenant:
	// independent exponential interarrivals at the tenant's mean rate —
	// the steady-state baseline of every serving benchmark.
	ArrivePoisson ArrivalKind = "poisson"
	// ArriveBursty is an on-off modulated Poisson process (two-state
	// MMPP): the whole tenant population shares seeded burst windows —
	// bursts are correlated across tenants, as embodied deployments see
	// when one world event wakes every agent — and within a window each
	// tenant emits Poisson arrivals at a boosted rate, sized so the
	// long-run mean rate still matches the Poisson baseline.
	ArriveBursty ArrivalKind = "bursty"
	// ArriveDiurnal thins a homogeneous Poisson process against a
	// sinusoidal day curve (trough at the horizon's edges, peak at its
	// middle), mean rate preserved: the slow load swing autoscalers are
	// usually tuned on.
	ArriveDiurnal ArrivalKind = "diurnal"
)

// ArrivalKinds is the canonical axis order for sweeps (fig12, CLI).
func ArrivalKinds() []ArrivalKind {
	return []ArrivalKind{ArrivePoisson, ArriveBursty, ArriveDiurnal}
}

// ParseArrival converts a CLI/config string into an ArrivalKind. The empty
// string selects the default (poisson). Like ParseRouting, the returned
// kind is "" on error — not a usable fallback.
func ParseArrival(s string) (ArrivalKind, error) {
	switch ArrivalKind(s) {
	case "", ArrivePoisson:
		return ArrivePoisson, nil
	case ArriveBursty:
		return ArriveBursty, nil
	case ArriveDiurnal:
		return ArriveDiurnal, nil
	}
	return "", fmt.Errorf("serve: unknown arrival process %q (%s|%s|%s)",
		s, ArrivePoisson, ArriveBursty, ArriveDiurnal)
}

// Traffic describes a front-door workload: a tenant population, each
// tenant a persona with its own prompt-prefix family, emitting requests
// from a seeded arrival process over a fixed horizon. GenerateTraffic is a
// pure function of this struct, so a traffic stream is byte-identical
// across reruns, worker counts and machines.
type Traffic struct {
	// Kind is the arrival process ("" = poisson).
	Kind ArrivalKind
	// Tenants is the persona population size (default 8). Each tenant
	// draws from its own named RNG stream, so adding or removing tenant N
	// leaves tenants 0..N-1's requests untouched.
	Tenants int
	// Horizon is the stream length in virtual time (default 30m).
	Horizon time.Duration
	// Rate is the long-run mean requests/sec per tenant (default 1/60 —
	// one request a minute, an embodied agent's planning cadence).
	Rate float64
	// BurstOn / BurstOff are the bursty process's mean on/off phase
	// lengths (defaults 3m / 7m — a 30% duty cycle). Within on-phases the
	// per-tenant rate is boosted by 1/duty so the long-run mean stays
	// Rate.
	BurstOn, BurstOff time.Duration
	// DiurnalAmp is the diurnal curve's relative swing in (0,1] (default
	// 0.8): rate varies between Rate·(1−amp) and Rate·(1+amp) over one
	// cycle spanning the horizon.
	DiurnalAmp float64
	// Seed roots all randomness.
	Seed uint64
}

// withDefaults fills zero fields.
func (t Traffic) withDefaults() Traffic {
	if t.Kind == "" {
		t.Kind = ArrivePoisson
	}
	if t.Tenants < 1 {
		t.Tenants = 8
	}
	if t.Horizon <= 0 {
		t.Horizon = 30 * time.Minute
	}
	if t.Rate <= 0 {
		t.Rate = 1.0 / 60
	}
	if t.BurstOn <= 0 {
		t.BurstOn = 3 * time.Minute
	}
	if t.BurstOff <= 0 {
		t.BurstOff = 7 * time.Minute
	}
	if t.DiurnalAmp <= 0 {
		t.DiurnalAmp = 0.8
	}
	if t.DiurnalAmp > 1 {
		t.DiurnalAmp = 1
	}
	return t
}

// burstWindow is one fleet-wide on-phase of the bursty process.
type burstWindow struct{ start, end time.Duration }

// expDur draws an exponential duration with the given mean from st.
// 1−U ∈ (0,1] keeps the log finite; a zero draw (U == 0 density) is fine —
// equal arrivals are legal and Replay tie-breaks them deterministically.
func expDur(st *rng.Stream, mean time.Duration) time.Duration {
	return time.Duration(-math.Log(1-st.Float64()) * float64(mean))
}

// burstPhases draws the shared on/off schedule over the horizon from its
// own stream, named independently of the tenant population — the schedule
// is a property of the world, so changing the tenant count must not move
// the bursts.
func burstPhases(src *rng.Source, horizon time.Duration, on, off time.Duration) []burstWindow {
	st := src.NewStream("bursty-phase")
	var ws []burstWindow
	at := time.Duration(0)
	for at < horizon {
		at += expDur(st, off)
		if at >= horizon {
			break
		}
		end := at + expDur(st, on)
		if end > horizon {
			end = horizon
		}
		ws = append(ws, burstWindow{start: at, end: end})
		at = end
	}
	return ws
}

// tenantPrompt builds the seq-th request prompt of the tenant whose persona
// section is named persona: the fleet-wide system+task preamble, the
// tenant's persona, and a sliding-window history tail — the
// SharedPreambleTrace section shapes, re-keyed per tenant.
// Sections carry token counts only, so their content digests reduce to
// (name, size) and the shape and content cache identities agree exactly;
// the persona section's per-tenant name is what keeps each tenant's prefix
// family distinct under both.
func tenantPrompt(persona string, seq int) prompt.Prompt {
	return prompt.New(
		prompt.Section{Name: "system", Tokens: 500},
		prompt.Section{Name: "task", Tokens: 200},
		prompt.Section{Name: persona, Tokens: 700},
		// History grows per exchange and truncates on a 12-turn window,
		// like a production context manager; the modulus also bounds the
		// distinct prefix variants a long stream creates.
		prompt.Section{Name: "hist", Tokens: 40 + 30*(seq%12), Droppable: true},
	)
}

// tenantArrivals draws tenant id's arrival times from its own named
// stream. Only this stream is consumed, so the sequence is independent of
// every other tenant's — the no-cross-tenant-coupling guarantee.
func tenantArrivals(t Traffic, id int, src *rng.Source, bursts []burstWindow) []time.Duration {
	st := src.NewStream(fmt.Sprintf("tenant-%d", id))
	mean := time.Duration(float64(time.Second) / t.Rate)
	var at []time.Duration
	switch t.Kind {
	case ArriveBursty:
		duty := float64(t.BurstOn) / float64(t.BurstOn+t.BurstOff)
		boosted := time.Duration(float64(mean) * duty)
		for _, w := range bursts {
			for ts := w.start + expDur(st, boosted); ts < w.end; ts += expDur(st, boosted) {
				at = append(at, ts)
			}
		}
	case ArriveDiurnal:
		// Thinning: draw at the peak rate, keep each arrival with
		// probability rate(ts)/peak. The curve troughs at the horizon
		// edges and peaks mid-horizon.
		peak := time.Duration(float64(mean) / (1 + t.DiurnalAmp))
		for ts := expDur(st, peak); ts < t.Horizon; ts += expDur(st, peak) {
			phase := 2*math.Pi*float64(ts)/float64(t.Horizon) - math.Pi/2
			frac := (1 + t.DiurnalAmp*math.Sin(phase)) / (1 + t.DiurnalAmp)
			if st.Float64() < frac {
				at = append(at, ts)
			}
		}
	default: // ArrivePoisson
		for ts := expDur(st, mean); ts < t.Horizon; ts += expDur(st, mean) {
			at = append(at, ts)
		}
	}
	return at
}

// GenerateTraffic renders the workload into an open-loop request trace,
// sorted by (arrival, tenant id, per-tenant sequence) — a deterministic
// total order even when seeded processes collide on an arrival time.
func GenerateTraffic(t Traffic) []Request {
	t = t.withDefaults()
	src := rng.New(t.Seed).Sub("serve/traffic")
	var bursts []burstWindow
	if t.Kind == ArriveBursty {
		bursts = burstPhases(src, t.Horizon, t.BurstOn, t.BurstOff)
	}
	var reqs []Request
	for id := 0; id < t.Tenants; id++ {
		agent := fmt.Sprintf("t%d", id)
		persona := "persona-" + agent
		for seq, at := range tenantArrivals(t, id, src, bursts) {
			reqs = append(reqs, Request{
				Agent:     agent,
				Arrival:   at,
				Prompt:    tenantPrompt(persona, seq),
				OutTokens: 60,
			})
		}
	}
	// Tenants were appended in (tenant, sequence) order; a stable arrival
	// sort therefore breaks arrival ties on exactly that order.
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Arrival < reqs[b].Arrival })
	return reqs
}
