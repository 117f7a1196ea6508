package main

import (
	"slices"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed moves
// by 15–30% over tens of seconds to minutes, with steps when neighbours
// start or stop work: ten runs of the same code then spread by more
// than a gate's bound however long each run is. A run therefore times a
// fixed reference kernel between its measured steps and reports each
// end-to-end time scaled to a machine on which the kernel takes
// refKernelSeconds. The kernel uses only the standard library and
// memory allocated before the run, so no change to the program can
// change its work, and a change's effect on the program's own time
// passes into the reported time in full.
//
// In sets of ten 45 s runs on a 2-core x86-64 VM, scaling halved the
// spread where the host's speed stepped (short32 synth_s 14.9% → 7.1%,
// select's 18.7% → 4.2%) and widened it by a few points in calm sets;
// between two sets it kept the medians within 10% where the raw short32
// medians moved 17%.

// refKernelSeconds is the kernel's nominal duration, close to its
// median on a 2-core 2.0 GHz Xeon VM: it fixes the scale of the
// reported times, so that they read near the raw seconds there.
const refKernelSeconds = 0.06

// refKernel is the reference workload: a walk of a random cycle over
// 4 MiB (memory latency), probes of a map (hashing and cache misses, as
// in the program's lookup tables) and a sort of a copied slice (branchy
// compute).
type refKernel struct {
	next   []uint32
	table  map[uint64]uint32
	keys   []uint64
	buf    []uint64
	secs   []float64
	result uint64
}

const (
	kernelSlots  = 1 << 20
	kernelKeys   = 1 << 15
	kernelWalk   = 400_000
	kernelProbes = 400_000
)

func newRefKernel() *refKernel {
	k := &refKernel{
		next:  make([]uint32, kernelSlots),
		table: make(map[uint64]uint32, kernelKeys),
		keys:  make([]uint64, kernelKeys),
		buf:   make([]uint64, kernelKeys),
	}
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Sattolo's shuffle of the identity leaves one cycle through every
	// slot.
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := len(k.next) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	for i := range k.keys {
		k.keys[i] = rnd()
		k.table[k.keys[i]%(4*kernelKeys)] = uint32(i)
	}
	return k
}

// run does the kernel's fixed work once and returns a checksum of it.
func (k *refKernel) run() uint64 {
	p := uint32(0)
	for i := 0; i < kernelWalk; i++ {
		p = k.next[p]
	}
	x, sum := uint64(p)|1, uint64(0)
	for i := 0; i < kernelProbes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += uint64(k.table[x%(4*kernelKeys)])
	}
	copy(k.buf, k.keys)
	slices.Sort(k.buf)
	return sum + uint64(p) + k.buf[len(k.buf)/2]
}

// sample times one run of the kernel.
func (k *refKernel) sample() {
	start := time.Now()
	k.result += k.run()
	k.secs = append(k.secs, time.Since(start).Seconds())
}

// scale is the factor that takes a time measured in this run to the
// reference machine: refKernelSeconds over the kernel's median.
func (k *refKernel) scale() float64 {
	return scaleTo(refKernelSeconds, k.secs)
}

// scaleTo is ref over the median of secs (1 for no samples).
func scaleTo(ref float64, secs []float64) float64 {
	m := median(secs)
	if m <= 0 {
		return 1
	}
	return ref / m
}
