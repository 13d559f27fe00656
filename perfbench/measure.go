package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// window is one measured interval: wall time, allocation and GC deltas,
// and the highest heap observed by a background sampler.
type window struct {
	start time.Time
	cpu0  time.Duration
	m0    runtime.MemStats
	heap  *heapSampler
}

type windowStats struct {
	elapsed    time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	peakHeap   uint64
}

// openWindow collects set-up garbage first, so the window starts from
// the live heap of the loaded system.
func openWindow() *window {
	runtime.GC()
	w := &window{}
	runtime.ReadMemStats(&w.m0)
	w.heap = startHeapSampler()
	w.cpu0 = processCPU()
	w.start = time.Now()
	return w
}

func (w *window) close() windowStats {
	elapsed := time.Since(w.start)
	cpu := processCPU() - w.cpu0
	peak := w.heap.stop()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return windowStats{
		elapsed:    elapsed,
		cpu:        cpu,
		allocBytes: m1.TotalAlloc - w.m0.TotalAlloc,
		gcCycles:   m1.NumGC - w.m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - w.m0.PauseTotalNs),
		peakHeap:   peak,
	}
}

// processCPU is the user plus system CPU time the process has used. It
// excludes time the host withheld from the process, which wall-clock
// figures cannot.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settleHeap collects the previous query's garbage before the next query
// is timed, inside the window. Without it a light query runs while the
// collector and the scavenger work through the garbage of the heavy
// compile before it, and re-faults the pages the scavenger returned;
// on a VM those faults cost about 10 µs each and doubled some light
// queries' latency, depending only on what ran before them. The
// collection still counts in the window's throughput, CPU and GC figures.
func settleHeap() { runtime.GC() }

// heapSampler polls the heap's object bytes (a runtime/metrics read,
// which does not stop the world) and keeps the maximum.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampler, waits for it, and returns the peak.
func (s *heapSampler) stop() uint64 {
	close(s.quit)
	<-s.done
	return s.peak
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// geomean is the geometric mean, the central latency used in place of
// the median: the 22 TPC-H queries' latencies have a gap between about
// 13 and 18 ms right at the median, so the median jumped between the two
// from run to run (its spread across 10 runs reached 0.27 of its value),
// while the geometric mean weighs every query, light ones most.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// costGeomean is the geometric mean of cost+1 over the distinct queries;
// the +1 keeps movement-free plans (cost 0) from zeroing the product.
func costGeomean(costs map[string]float64) float64 {
	if len(costs) == 0 {
		return 0
	}
	var sum float64
	for _, c := range costs {
		sum += math.Log(c + 1)
	}
	return math.Exp(sum / float64(len(costs)))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
