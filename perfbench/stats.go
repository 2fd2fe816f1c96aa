package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"

	"embench/internal/benchjson"
	"embench/internal/serve"
)

// quantile returns the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(math.Floor(pos))
	if i >= n-1 {
		return sorted[n-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

// tail returns the op-time percentile reported as op_ms_tail: pct when at
// least 10 samples lie beyond it, else the highest lower ladder step that
// has them. It also returns the percentile used and the samples beyond it.
func tail(sorted []float64, pct float64) (value, used float64, beyond int) {
	n := len(sorted)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if p > pct {
			continue
		}
		beyond = int(float64(n) * (1 - p/100))
		if beyond >= 10 || p == 50 {
			return quantile(sorted, p/100), p, beyond
		}
	}
	return 0, 0, 0
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuNow reports the process's CPU time, user and system over all threads,
// in seconds. Host times are CPU times: on a shared virtual machine the wall
// clock also counts time the hypervisor gives other guests, which moved
// whole runs' wall-clock op times by 20-40% and their CPU times by about
// half that.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// env stamps a result with the machine it was measured on.
type env struct {
	benchjson.Env
	NumCPU   int     `json:"nproc"`
	CPUModel string  `json:"cpu_model"`
	Seed     uint64  `json:"seed"`
	Workload string  `json:"workload"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
}

func stamp(w string, seed uint64, seconds float64, traced bool) env {
	host, _ := os.Hostname()
	tr := 0
	if traced {
		tr = 1
	}
	return env{
		Env: benchjson.Env{
			Host:       host,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
		NumCPU:   runtime.NumCPU(),
		CPUModel: cpuModel(),
		Seed:     seed,
		Workload: w,
		Seconds:  seconds,
		Trace:    tr,
	}
}

// cpuModel reads the processor name the kernel reports, if any.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Runtime counters read around ops and phases.
var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func newRuntimeSamples() []metrics.Sample {
	return append([]metrics.Sample(nil), runtimeSamples...)
}

type runtimeStats struct {
	allocs, bytes, live, cycles uint64
	gcCPU, totalCPU             float64
}

// readRuntime reads the counters into s, a copy of runtimeSamples, so that
// reading allocates nothing.
func readRuntime(s []metrics.Sample) runtimeStats {
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocs: u(0), bytes: u(1), live: u(2), cycles: u(3), gcCPU: f(4), totalCPU: f(5)}
}

// digest hashes an op's simulated outputs: episode metrics, the endpoint's
// serving statistics and every replay completion.
func digest(r *opResult) uint64 {
	h := fnv.New64a()
	w := bufio.NewWriter(h)
	for _, e := range r.episodes {
		fmt.Fprintf(w, "%+v\n", e)
	}
	fmt.Fprintf(w, "%+v\n", r.serving)
	if rr := r.replay; rr != nil {
		fmt.Fprintf(w, "%d %d\n", rr.Batches, rr.Makespan)
		for _, c := range rr.Completions {
			writeCompletion(w, c)
		}
	}
	w.Flush()
	return h.Sum64()
}

func writeCompletion(w *bufio.Writer, c serve.Completion) {
	w.WriteString(c.Agent)
	w.WriteString(string(c.Outcome))
	for _, v := range []int64{
		int64(c.Arrival), int64(c.Start), int64(c.Done), int64(c.QueueWait),
		int64(c.BatchSize), int64(c.PromptTokens), int64(c.CachedTokens),
		int64(c.PrefillDone), int64(c.DecodeWait), int64(c.Retries),
	} {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		w.Write(b[:])
	}
	if c.Hedged {
		w.WriteByte(1)
	} else {
		w.WriteByte(0)
	}
}
