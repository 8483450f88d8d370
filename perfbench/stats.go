package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// durations is a latency sample.
type durations []time.Duration

// quantile returns the q-quantile (nearest rank) in the given unit, or 0
// for an empty sample.
func (d durations) quantile(q float64, unit time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / float64(unit)
}

// median of a float sample, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is one busy span of wall time.
type interval struct{ t0, t1 time.Time }

// covered returns how much of [lo, hi] the intervals cover, counting
// overlapping intervals once (parallel probes of one fan-out round).
func covered(ivs []interval, lo, hi time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].t0.Before(ivs[j].t0) })
	var total time.Duration
	var curLo, curHi time.Time
	open := false
	for _, iv := range ivs {
		a, b := iv.t0, iv.t1
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if !b.After(a) {
			continue
		}
		if open && !a.After(curHi) {
			if b.After(curHi) {
				curHi = b
			}
			continue
		}
		if open {
			total += curHi.Sub(curLo)
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi.Sub(curLo)
	}
	return total
}

// heapAllocBytes reads the cumulative bytes allocated on the heap, without
// stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler samples the live heap, the bytes the last completed
// collection found reachable, every 10 ms while a pass runs.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []uint64
}

// startHeapSampler collects garbage left by set-up, then samples until
// stopped.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the median and the peak live heap
// in MiB. The peak catches whatever copy-on-write clones were in flight
// when a collection ran; the median is the heap the federation keeps.
func (h *heapSampler) stopMB() (median, peak float64) {
	close(h.stop)
	h.done.Wait()
	s := h.samples
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / (1 << 20), float64(s[len(s)-1]) / (1 << 20)
}

// hist is a latency histogram with 1/256 relative resolution in constant
// memory, so millions of samples do not grow the heap the benchmark
// measures. Quantiles interpolate within a bucket.
type hist struct {
	counts [histOctaves << histSubBits]uint64
	n      uint64
}

const (
	histSubBits = 8
	histOctaves = 40 // 1 ns to 18 minutes
)

func (h *hist) add(d time.Duration) {
	v := uint64(min(max(d, 1), 1<<histOctaves-1))
	e := bits.Len64(v) - 1
	var sub uint64
	if e >= histSubBits {
		sub = v >> (e - histSubBits)
	} else {
		sub = v << (histSubBits - e)
	}
	h.counts[e<<histSubBits|int(sub&(1<<histSubBits-1))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in the given unit, or 0 for an empty
// histogram.
func (h *hist) quantile(q float64, unit time.Duration) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(1, math.Ceil(q*float64(h.n)))
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			e, sub := i>>histSubBits, float64(i&(1<<histSubBits-1))
			lo := math.Ldexp(1+sub/(1<<histSubBits), e)
			hi := math.Ldexp(1+(sub+1)/(1<<histSubBits), e)
			return (lo + (hi-lo)*(rank-seen)/float64(c)) / float64(unit)
		}
		seen += float64(c)
	}
	return 0
}
