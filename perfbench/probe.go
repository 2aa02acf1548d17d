package main

import (
	"math"
	"time"
)

// probeRef is the probe time (the geometric mean of its two parts' medians)
// on the reference host, rounded (README.md, Host speed). Every reported
// time is scaled to that host's speed: a time measured in a round is
// multiplied by probeRef over the probe time of that round.
const probeRef = 420 * time.Microsecond

const (
	// scanPoints is the size of the scan's point set: 1 MiB of
	// coordinates, about the size of the oracle's scan over 20 000
	// objects.
	scanPoints = 1 << 16
	// chaseSlots is the size of the pointer chase's table, 8 MiB, and
	// chaseSteps the dependent loads of one chase.
	chaseSlots = 1 << 21
	chaseSteps = 4000
)

// probe is a fixed computation that shares no code or data with the
// program, timed once after every measured tick to track how fast the
// host runs at that moment. It has two parts, a streaming scan for the
// nearest of 65 536 fixed points and a chase of dependent loads through a
// random cycle over 8 MiB, because the program's tick time follows the
// core's speed as well as the memory system's, and neither part alone
// tracked every workload.
type probe struct {
	xy   []float64
	next []uint32
	sink float64 // keeps the results live
}

// sample is one probe run: the time of each part.
type sample struct{ scan, chase time.Duration }

func newProbe() *probe {
	p := &probe{xy: make([]float64, 2*scanPoints), next: make([]uint32, chaseSlots)}
	x := uint64(0x9E3779B97F4A7C15) // xorshift64; any fixed non-zero seed
	rand := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range p.xy {
		p.xy[i] = float64(rand()>>11) / (1 << 53) * 10000
	}
	// Sattolo's shuffle: one cycle through every slot, so a chase never
	// falls into a short loop that stays in cache.
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	for i := len(p.next) - 1; i > 0; i-- {
		j := rand() % uint64(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	return p
}

// run times both parts once.
func (p *probe) run() sample {
	const qx, qy = 5000, 5000
	t0 := time.Now()
	best := 2e8 // beyond any squared distance in the 10 km square
	for i := 0; i < len(p.xy); i += 2 {
		dx, dy := p.xy[i]-qx, p.xy[i+1]-qy
		if d := dx*dx + dy*dy; d < best {
			best = d
		}
	}
	t1 := time.Now()
	j := uint32(0)
	for i := 0; i < chaseSteps; i++ {
		j = p.next[j]
	}
	t2 := time.Now()
	p.sink += best + float64(j)
	return sample{t1.Sub(t0), t2.Sub(t1)}
}

// probeTime returns the probe time of a set of samples: the geometric
// mean of each part's median.
func probeTime(samples []sample) time.Duration {
	scans := make([]float64, len(samples))
	chases := make([]float64, len(samples))
	for i, s := range samples {
		scans[i], chases[i] = float64(s.scan), float64(s.chase)
	}
	return time.Duration(math.Sqrt(median(scans) * median(chases)))
}

// scale returns the factor that takes times measured alongside the given
// probe samples to the reference host's speed.
func scale(samples []sample) float64 {
	return float64(probeRef) / float64(probeTime(samples))
}

// scaled returns d at the reference host's speed.
func scaled(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
