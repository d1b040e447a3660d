package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration. The machines this benchmark runs on share their
// cores with other tenants, and their speed drifts by tens of percent over
// minutes, far more than the bounds allow. So every run also times a fixed
// reference loop that shares no code with the simulator or the server,
// between the things it measures, and reports its time metrics in
// reference-host units: measured time x calibRefSeconds / (the mean of the
// two samples around the measurement; the run's median sample for the
// per-layer metrics). A slower or faster simulator still moves every metric
// in full; a slower or faster host cancels out. The raw figures are printed
// on the human-readable lines, and host.calib_ms (per layer) is the run's
// median raw calibration time.
//
// The loop has two parts of about equal time, each the kind of code the
// simulator and the daemon run rather than a tight loop: map inserts,
// lookups and deletes over a small key space with a slice used as a queue,
// as a cache's tag lookups and miss queues do; and a JSON encode and decode
// of a fixed document of small records, a sort of them by name, and
// parsing and formatting of their fields, as the daemon's request path
// does. Tight loops track the host poorly. Over about sixty interleaved
// samples on a 2-vCPU KVM guest, the quarter with the slowest simulator
// ran 1.8x to 1.9x longer than the quarter with the fastest, the map part
// 1.8x and the JSON part 2.1x longer, but an arithmetic loop only 1.4x, a
// pointer chase over 256 KB 1.5x and one over 4 MB 1.6x longer: such loops
// are less sensitive to a shared core's caches and issue slots than
// branchy code with a large footprint.

// calibRefSeconds is the reference loop's time on the machine the first
// baseline was measured on, at its typical speed; it fixes the unit only.
const calibRefSeconds = 0.08

// Lengths of the calibration loop's two parts.
const (
	calibMapSteps  = 1_000_000
	calibDocRounds = 18
)

// calibRecord is one record of the calibration document.
type calibRecord struct {
	ID   int
	Name string
	Tags []string
	Vals []float64
	Sub  map[string]int
}

var (
	calibDocOnce sync.Once
	calibDoc     []calibRecord
	calibName    = regexp.MustCompile(`^item-(\d+)-([a-z]+)$`)
)

// calibrate times one run of the reference loop.
func calibrate() float64 {
	calibDocOnce.Do(func() {
		words := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"}
		x := uint64(99)
		for i := 0; i < 300; i++ {
			x = xorshift(x)
			r := calibRecord{ID: i, Name: fmt.Sprintf("item-%d-%s", x%10000, words[x%8]), Sub: map[string]int{}}
			for j := 0; j < 4; j++ {
				r.Tags = append(r.Tags, words[(x>>uint(j*3))%8])
				r.Vals = append(r.Vals, float64(x%1000)/7)
				r.Sub[words[(x>>uint(j*5))%8]] = j
			}
			calibDoc = append(calibDoc, r)
		}
	})
	// Collect the workload's garbage outside the timing: with one thread
	// running Go code, the sample would otherwise pay for it.
	runtime.GC()
	t := time.Now()
	calibSink = calibMaps() + calibDocument()
	return elapsed(t)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibMaps counts random keys in a map, queues each key it touches, and
// drops the queued keys whose count passed a threshold when the queue fills.
//
//go:noinline
func calibMaps() uint64 {
	m := make(map[uint64]int64, 8192)
	q := make([]uint64, 0, 64)
	x := uint64(12345)
	for k := 0; k < calibMapSteps; k++ {
		x = xorshift(x)
		key := x % 8192
		m[key]++
		q = append(q, key)
		if len(q) == cap(q) {
			for _, key := range q {
				if m[key] > 4 {
					delete(m, key)
				}
			}
			q = q[:0]
		}
	}
	return uint64(len(m))
}

// calibDocument round-trips the calibration document through JSON, sorts
// the copy by name, and parses and formats its fields.
//
//go:noinline
func calibDocument() uint64 {
	var acc uint64
	for k := 0; k < calibDocRounds; k++ {
		data, err := json.Marshal(calibDoc)
		if err != nil {
			panic(fmt.Sprintf("perfbench: calibration document: %v", err))
		}
		var doc []calibRecord
		if err := json.Unmarshal(data, &doc); err != nil {
			panic(fmt.Sprintf("perfbench: calibration document: %v", err))
		}
		sort.Slice(doc, func(i, j int) bool { return doc[i].Name < doc[j].Name })
		for _, r := range doc {
			if m := calibName.FindStringSubmatch(r.Name); m != nil {
				n, _ := strconv.Atoi(m[1])
				acc += uint64(n)
			}
			acc += uint64(len(strings.ToUpper(strings.Join(r.Tags, ","))))
			acc += uint64(len(strconv.FormatFloat(r.Vals[0], 'g', -1, 64)))
		}
	}
	return acc
}

// calibSink keeps the loop's result live.
var calibSink uint64

// hostSpeed collects a run's calibration samples.
type hostSpeed struct{ samples []float64 }

// sample times the reference loop once and returns the time.
func (h *hostSpeed) sample() float64 {
	c := calibrate()
	h.samples = append(h.samples, c)
	return c
}

// factor converts this run's measured times to reference-host times.
func (h *hostSpeed) factor() float64 { return speedFactor(h.samples) }

// bracketFactors returns the speed factors of n measurements taken
// between calibration samples, per measurements between two samples:
// measurement i lies between cal[i/per] and cal[i/per+1] and is scaled by
// those two, so a host that changes speed during a run is corrected where
// it changed.
func bracketFactors(n int, cal []float64, per int) []float64 {
	f := make([]float64, n)
	for i := range f {
		k := i / per
		f[i] = speedFactor(cal[k : k+2])
	}
	return f
}

// scaleBy multiplies (or, for rates, divides) each value by its factor.
func scaleBy(xs, f []float64, rate bool) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if rate {
			out[i] = x / f[i]
		} else {
			out[i] = x * f[i]
		}
	}
	return out
}

// speedFactor converts times measured next to the given calibration
// samples to reference-host times (1 without samples).
func speedFactor(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return calibRefSeconds / median(samples)
}
