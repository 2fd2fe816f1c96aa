package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Profile attribution for layers with no public seam: each CPU sample (or
// sampled allocation) is charged to the layer of the innermost frame that
// belongs to the program, so standard-library work (maps, fmt, reflect,
// malloc) counts for the layer that called it. Samples under a GC worker or
// assist count as gc; frames of this benchmark count as bench.

// profLayers are the reported layers, in output order.
var profLayers = []string{"env", "path", "memory", "comms", "prompt", "llm", "core", "serve", "rng", "gc", "bench", "other"}

// gcFrames mark a sample as garbage-collector work wherever they appear.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.gcDrain":           true,
	"runtime.gcDrainN":          true,
	"runtime.markroot":          true,
	"runtime.scanobject":        true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// layerOfPkg maps a program package path to its layer.
func layerOfPkg(pkg string) string {
	p := strings.TrimPrefix(pkg, "embench/internal/")
	switch {
	case strings.HasPrefix(p, "env/"), p == "world", p == "geom":
		return "env"
	case strings.HasPrefix(p, "path/"):
		return "path"
	case p == "modules/memory":
		return "memory"
	case p == "modules/comms":
		return "comms"
	case p == "prompt", p == "tokenizer":
		return "prompt"
	case p == "llm":
		return "llm"
	case p == "serve", strings.HasPrefix(p, "serve/"):
		return "serve"
	case p == "rng":
		return "rng"
	}
	return "core"
}

// funcPkg returns a function symbol's package path.
func funcPkg(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// classify names the layer of a stack given leaf first.
func classify(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		switch pkg := funcPkg(fn); {
		case pkg == "main", pkg == "embench/perfbench": // the binary, the test binary
			return "bench"
		case strings.HasPrefix(pkg, "embench/"):
			return layerOfPkg(pkg)
		}
	}
	return "other"
}

// hotFrames are single functions the doc names as hot spots; a sample counts
// for each one on its stack.
var hotFrames = map[string]string{
	"reflect.DeepEqual":                "deepequal",
	"embench/internal/path/astar.Plan": "astar",
}

// attribution accumulates weights by layer and by hot frame.
type attribution struct {
	total  float64
	layers map[string]float64
	hot    map[string]float64
}

func newAttribution() *attribution {
	return &attribution{layers: map[string]float64{}, hot: map[string]float64{}}
}

func (a *attribution) add(stack []string, w float64) {
	a.total += w
	a.layers[classify(stack)] += w
	seen := map[string]bool{}
	for _, fn := range stack {
		if h, ok := hotFrames[fn]; ok && !seen[h] {
			seen[h] = true
			a.hot[h] += w
		}
	}
}

func (a *attribution) frac(key string, m map[string]float64) float64 {
	if a.total == 0 {
		return 0
	}
	return m[key] / a.total
}

// cpuProfile is a CPU profile being written to memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and attributes it.
func (p *cpuProfile) stop() (*attribution, error) {
	pprof.StopCPUProfile()
	a, err := cpuAttribution(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	return a, nil
}

// cpuAttribution decodes a runtime/pprof CPU profile (gzipped
// profile.proto) and attributes its CPU time.
func cpuAttribution(gz []byte) (*attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []sample
		strs    []string
		fnName  = map[uint64]uint64{}   // function id → string index
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbInts(s.locs, v, b)
				case 2:
					s.vals = pbInts(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	a := newAttribution()
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		a.add(stack, float64(s.vals[len(s.vals)-1]))
	}
	return a, nil
}

// pbFields walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends a repeated integer field given either one varint or a
// packed run.
func pbInts(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// allocSnapshot is the sampled heap-allocation profile: bytes by stack
// hash, and each stack once. It is kept small because it stays live through
// the traced run, and live heap changes how often GC runs.
type allocSnapshot struct {
	bytes  map[uint64]int64
	stacks map[uint64][]uintptr
}

// takeAllocs snapshots runtime.MemProfile after two GCs, which publish every
// allocation made so far. Only the after-snapshot keeps stacks.
func takeAllocs(withStacks bool) allocSnapshot {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	s := allocSnapshot{bytes: make(map[uint64]int64, len(recs))}
	if withStacks {
		s.stacks = make(map[uint64][]uintptr, len(recs))
	}
	for i := range recs {
		stk := recs[i].Stack()
		h := fnv.New64a()
		for _, pc := range stk {
			binary.Write(h, binary.LittleEndian, uint64(pc))
		}
		k := h.Sum64()
		s.bytes[k] += recs[i].AllocBytes
		if withStacks {
			s.stacks[k] = stk
		}
	}
	return s
}

// allocAttribution attributes the bytes allocated between two snapshots.
func allocAttribution(before, after allocSnapshot) *attribution {
	a := newAttribution()
	for k, bytes := range after.bytes {
		d := bytes - before.bytes[k]
		if d <= 0 {
			continue
		}
		var stack []string
		frames := runtime.CallersFrames(after.stacks[k])
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		a.add(stack, float64(d))
	}
	return a
}
