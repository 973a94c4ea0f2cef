package main

import "time"

// The host this runs on speeds up and slows down (neighbours on the same
// machine), steadily for minutes or in bursts of seconds: sets of ten 20 s
// runs spread 10–34 % apart in raw wall time, and their medians drifted 40–53 %
// between sets, whatever statistic of the reps a run reported. So every run
// also times a fixed calibration loop after each set-up and rep, and scales
// its end-to-end timings by the square of calibRef over the mean loop time
// (hostSpeed.factor). The gated values are host seconds on a host where the
// loop takes calibRef. The loop shares no code with the simulator, so a change
// to the simulator cannot move it.

// calibRef is the loop's mean time on the quiet 2.1 GHz Xeon the run lengths
// were sized on; on that host normalised and raw seconds agree.
const calibRef = 7900 * time.Microsecond

// sampleEvery is how much measured work one calibration sample stands for.
const sampleEvery = 250 * time.Millisecond

var calibTable [1 << 17]uint32 // 512 KB: past L1, inside L2

var calibSink uint32

// calibrate runs the loop once: a xorshift stream driving table loads,
// stores and an unpredictable branch.
func calibrate() time.Duration {
	t0 := time.Now()
	x, acc := uint32(2463534242), uint32(0)
	const mask = uint32(len(calibTable) - 1)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := calibTable[x&mask]
		if v&1 == 0 {
			acc += v + x
		} else {
			acc ^= x
		}
		calibTable[(x>>7)&mask] = acc
	}
	calibSink = acc
	return time.Since(t0)
}

// hostSpeed collects a run's calibration samples.
type hostSpeed struct{ samples []time.Duration }

// sampleAfter samples the loop once per sampleEvery of the work that has just
// been timed, and at least once.
func (h *hostSpeed) sampleAfter(work time.Duration) {
	for n := 1 + int(work/sampleEvery); n > 0; n-- {
		h.samples = append(h.samples, calibrate())
	}
}

// factor is what a raw duration of this run is multiplied by to normalise
// it. Samples are spread over the run in proportion to the work timed, so
// their mean and the mean rep average the host's speed over the same
// interval, however the interference is spread inside it; quantiles of the
// two do not. The ratio is squared because that is how the two move together
// on this host: when the loop slows by x, a rep of any of the four workloads
// slows by x² (log-log slope 1.8–2.2, r ≥ 0.9, over 49 runs and over 20 s
// windows of a logged quarter of an hour; README.md, "Gated timings").
func (h *hostSpeed) factor() float64 {
	r := float64(calibRef) / float64(sum(h.samples)) * float64(len(h.samples))
	return r * r
}
