package main

import (
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark runs on a few virtual cores of a shared host, and what the
// neighbours do to the shared caches and sibling hardware threads changes the
// speed of this program by tens of per cent over tens of seconds: twenty
// verify sweeps at a fixed seed took anything from 3.8 s to 6.6 s within ten
// minutes, user CPU time alike, with no steal time reported. No repetition
// count inside a run averages that away, because a whole run sits inside one
// slow or fast spell.
//
// So every timed interval is measured against a clock that slows down with
// the machine: a calibrator goroutine times a fixed kernel every few
// milliseconds while the interval runs, and the interval's time is scaled by
// nominal kernel time / measured kernel time. Times are then reported in
// seconds of the reference machine when nothing else runs on its host. The
// kernel lives here, shares no code with the program under test, allocates
// nothing on the Go heap (so it neither pays for nor provokes the program's
// collections), and was chosen by measurement: its time moves one for one
// with the workloads' (log-log slope 1.0 to 1.1 under a noisy host), where an
// arithmetic loop barely moves and a memory-bandwidth loop moves half as
// much. See README.md, "Reference-speed seconds".

const (
	// calibNominal is the kernel's time in seconds at speed 1. It only
	// fixes the scale of the reported seconds; comparisons never depend on
	// it. It is set so that the four workloads' scaled times straddle what
	// they clocked on the reference machine in a quiet hour (README.md,
	// "Run-to-run spread").
	calibNominal = 0.53e-3
	// calibPeriod is the pause between two kernel runs. One run takes about
	// half a millisecond, so sampling costs about 2 % of one core.
	calibPeriod = 25 * time.Millisecond
	// minCalibSamples is topped up right after an interval too short to
	// have collected that many.
	minCalibSamples = 16

	calibWindow = 1 << 20 // bytes written per kernel run
	calibSlots  = 1 << 16 // open-addressing table, a quarter of it filled
	calibRecord = 64      // bytes per record
)

var (
	// calibArena is written one window at a time, round robin, so each run
	// starts on memory that has left the caches, the way freshly allocated
	// memory has. It is mapped outside the Go heap: the collector's pacing
	// and the live-heap metric must not see it.
	calibArena = newCalibArena(16 << 20)
	calibTable = make([]uint32, calibSlots)
	calibNext  int
	calibSink  atomic.Uint64
)

func newCalibArena(size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		mem = make([]byte, size)
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 1 // fault every page in now, not inside a sample
	}
	return mem
}

// calibKernel is a miniature of what the program under test does all day:
// fill fresh memory with records, index them in a hash table, look each one
// up again. Only one calibrator runs at a time.
func calibKernel() {
	w := calibArena[calibNext : calibNext+calibWindow]
	calibNext = (calibNext + calibWindow) % len(calibArena)
	clear(w)
	clear(calibTable)
	const mask = calibSlots - 1
	n := calibWindow / calibRecord
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rec := w[i*calibRecord : (i+1)*calibRecord]
		for j := 0; j < 8; j++ {
			v := x >> uint(j)
			rec[j*8], rec[j*8+1], rec[j*8+7] = byte(v), byte(v>>8), byte(v>>16)
		}
		h := uint32(x) & mask
		for calibTable[h] != 0 {
			h = (h + 1) & mask
		}
		calibTable[h] = uint32(i + 1)
	}
	var sum uint64
	x = 88172645463325252
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h := uint32(x) & mask
		for calibTable[h] != uint32(i+1) {
			h = (h + 1) & mask
		}
		sum += uint64(w[i*calibRecord])
	}
	calibSink.Add(sum)
}

// calibrator samples the machine's speed for as long as an interval lasts.
type calibrator struct {
	stop, done chan struct{}
	samples    []float64 // seconds per kernel run
}

// startCalibrator begins sampling. Start it before reading the allocation
// counters: everything it allocates, it allocates here.
func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{}), samples: make([]float64, 0, 8192)}
	tick := time.NewTicker(calibPeriod)
	go func() {
		defer close(c.done)
		defer tick.Stop()
		for {
			c.sample()
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

func (c *calibrator) sample() {
	t0 := time.Now()
	calibKernel()
	c.samples = append(c.samples, time.Since(t0).Seconds())
}

// finish stops sampling and returns the machine's speed over the interval,
// 1 being the quiet reference machine, and the CPU seconds the sampling
// itself used inside the interval. The speed is nominal time over the
// interdecile mean of the samples: a mean, because a slow spell inside the
// interval slows the interval in proportion to its length, without the few
// samples an interrupt or a preemption landed in.
func (c *calibrator) finish() (speed, busy float64) {
	close(c.stop)
	<-c.done
	for _, s := range c.samples {
		busy += s
	}
	for len(c.samples) < minCalibSamples {
		c.sample()
	}
	return calibNominal / trimmedMean(c.samples, 0.1), busy
}
