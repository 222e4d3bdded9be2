package main

import (
	"runtime"
	"slices"
	"strconv"
)

// The end-to-end timings are CPU time scaled to a reference speed.  The
// vCPUs of a shared host run this process's threads 10–35% faster or slower
// from one minute to the next, and CPU time alone does not remove that,
// since the time is still spent on this process's threads.  After every
// timed piece of work the benchmark therefore runs a fixed calibration
// kernel for a quarter of the piece's CPU time (at most refMaxMs), on one
// locked thread, and scales the piece's CPU time by refNominalMs over the
// kernel's CPU time per call: the piece's cost on a machine where the
// kernel takes refNominalMs.

// refNominalMs is the calibration kernel's CPU time per call on the
// two-vCPU box the benchmark was sized on.  Changing it rescales every
// timing and breaks comparison with earlier figures.
const refNominalMs = 4.5

// refShare is the calibration CPU time run after each timed piece, as a
// share of the piece's CPU time, up to refMaxMs.
const (
	refShare = 0.25
	refMaxMs = 400.0
)

// refKernel is the calibration kernel's preallocated state.  A call sorts,
// hashes, reads scattered words and formats numbers over half a megabyte —
// the kinds of work the pipeline's codec, checkers and replay do — and
// allocates nothing, so the garbage collector does not enter its time.
type refKernel struct {
	src, buf []uint64
	table    map[uint64]uint32
	text     []byte
	sink     uint64
}

func newRefKernel() *refKernel {
	const n = 1 << 15
	r := &refKernel{src: make([]uint64, n), buf: make([]uint64, n), table: make(map[uint64]uint32, n/4), text: make([]byte, 0, 1<<16)}
	x := uint64(88172645463325252)
	for i := range r.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.src[i] = x
	}
	for i := 0; i < n/4; i++ {
		r.table[r.src[4*i]] = uint32(i)
	}
	return r
}

// call runs the fixed reference work once.
func (r *refKernel) call() {
	copy(r.buf, r.src)
	slices.Sort(r.buf)
	sum := r.sink
	for i, v := range r.src {
		if j, ok := r.table[v]; ok {
			sum += uint64(j)
		}
		sum += r.buf[(i*7919)&(len(r.buf)-1)]
	}
	r.text = r.text[:0]
	for _, v := range r.buf[:4096] {
		r.text = strconv.AppendUint(r.text, v, 10)
		r.text = append(r.text, ',')
	}
	for _, c := range r.text {
		sum = sum*31 + uint64(c)
	}
	r.sink = sum
}

var ref = newRefKernel()

// refScale runs the kernel for refShare of pieceCPUms (at most refMaxMs)
// of its own thread's CPU time and returns the factor that scales a CPU
// time measured just before to the reference speed.  The thread is locked,
// so the kernel's time is its own and not that of other goroutines.
func refScale(pieceCPUms float64) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	budget := int64(min(refShare*pieceCPUms, refMaxMs) * 1e6)
	t0 := threadCPUNow()
	calls := 0
	for {
		ref.call()
		calls++
		if d := threadCPUNow() - t0; d >= budget {
			return refNominalMs * 1e6 * float64(calls) / float64(d)
		}
	}
}
