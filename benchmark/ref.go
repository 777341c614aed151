package main

import "time"

// The host this benchmark runs on is a small VM whose speed wanders: over
// minutes the same binary's medians move by 1.5x when the core's sibling
// thread is busy with somebody else's work, and by more when the
// hypervisor steals the vCPU outright. No amount of repetition inside a
// run averages that out, because a whole run sits inside one such episode.
//
// So every timing is reported at reference speed. refKernel is a fixed
// piece of pure-Go work that shares no code with the engine; it runs
// beside every timed phase, and a timing measured while the kernel took r
// ms is scaled by refNominalMs/r. A change to the engine moves the engine's
// time and not the kernel's, so it shows in full; a slow minute of the host
// moves both and largely cancels. The measured r is printed with every run
// (ref_ms) and is the per-layer metric host.ref_ms.

// refNominalMs is the kernel's time on this host when it is quiet. It only
// fixes the scale of the reported numbers.
const refNominalMs = 1.1

// refKernel is a filtered pass over 2 MiB of integers with a dependent
// random load into a 4 MiB table for each qualifying element: streaming
// reads, an unpredictable branch and cache-missing loads — the mix a scan,
// a hash probe or an index lookup is made of.
type refKernel struct {
	data  []uint64
	table []uint32
}

func newRefKernel() *refKernel {
	k := &refKernel{data: make([]uint64, 256<<10), table: make([]uint32, 1<<20)}
	x := uint64(88172645463325252)
	for i := range k.data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.data[i] = x
	}
	for i := range k.table {
		k.table[i] = uint32(i * 2654435761)
	}
	return k
}

// run executes the kernel twice and returns how long the second pass took,
// in ms. The first pass brings the kernel's 6 MiB back into the caches, so
// the reading does not depend on what the engine left there.
func (k *refKernel) run() float64 {
	k.pass()
	t0 := time.Now()
	k.pass()
	return float64(time.Since(t0)) / 1e6
}

func (k *refKernel) pass() {
	var acc uint64
	mask := uint64(len(k.table) - 1)
	for _, v := range k.data {
		if v&7 < 5 {
			acc += uint64(k.table[(v>>20)&mask])
		}
	}
	refSink = acc
}

var refSink uint64

// hostSpeed collects the kernel's timings around one phase.
type hostSpeed struct {
	k  *refKernel
	ms sample
}

// sample runs the kernel n times.
func (h *hostSpeed) sample(n int) {
	for i := 0; i < n; i++ {
		h.ms = append(h.ms, h.k.run())
	}
}

// scale is the factor that takes a duration measured during the phase to
// reference speed (and, inverted, a rate).
func (h *hostSpeed) scale() float64 {
	if m := h.ms.median(); m > 0 {
		return refNominalMs / m
	}
	return 1
}
