// Addersweep reproduces the paper's exhaustive 3-bit adder study
// (Fig. 12/13/14 and section 6.2): all 4096 input-vector transitions
// simulated with the switch-level tool in well under a second — the
// sweep the authors report taking 4.78 CPU-hours of SPICE — followed
// by the degradation histogram that motivates vector-aware sizing.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"mtcmos"
)

func main() {
	const bits = 3
	const wl = 10.0
	tech := mtcmos.Tech07()
	ad := mtcmos.RippleCarryAdder(&tech, bits, 20e-15)
	fmt.Printf("%d-bit mirror ripple adder: %d transistors (paper: 3x28)\n",
		bits, ad.Stats().Transistors)

	outs := []string{"s0", "s1", "s2", "cout"}
	space, err := mtcmos.NewVectorSpace(append(mtcmos.BitNames("a", bits), mtcmos.BitNames("b", bits)...)...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive sweep: %d ordered vector pairs\n\n", space.PairCount())

	half := uint64(1) << bits
	run := func(sleepWL float64) (map[[2]uint64]float64, time.Duration) {
		ad.SleepWL = sleepWL
		delays := map[[2]uint64]float64{}
		start := time.Now()
		for o := uint64(0); o < space.Size(); o++ {
			for w := uint64(0); w < space.Size(); w++ {
				stim := mtcmos.Stimulus{
					Old:   ad.Inputs(o%half, o/half, false),
					New:   ad.Inputs(w%half, w/half, false),
					TEdge: 1e-9, TRise: 50e-12,
				}
				res, err := mtcmos.Simulate(ad.Circuit, stim, mtcmos.SwitchOptions{})
				if err != nil {
					log.Fatal(err)
				}
				if d, _, ok := res.MaxDelay(outs); ok {
					delays[[2]uint64{o, w}] = d
				}
			}
		}
		return delays, time.Since(start)
	}

	base, tBase := run(0)
	mt, tMT := run(wl)
	total := tBase + tMT
	fmt.Printf("switch-level: 2 x 4096 simulations in %s (%.1f us/vector)\n",
		total.Round(time.Millisecond), total.Seconds()*1e6/8192)
	fmt.Printf("(the paper reports 13.5s for its tool and 4.78 CPU-hours for SPICE on this sweep)\n\n")

	// Degradation distribution at W/L=10 (Fig. 14's data). Transitions
	// are visited in sweep order, so the first of several tied at the
	// worst degradation is the one reported, on every run.
	var degs []float64
	worst, worstKey := 0.0, [2]uint64{}
	for o := uint64(0); o < space.Size(); o++ {
		for w := uint64(0); w < space.Size(); w++ {
			k := [2]uint64{o, w}
			d0, ok0 := base[k]
			d1, ok1 := mt[k]
			if !ok0 || !ok1 || d0 <= 0 {
				continue
			}
			deg := 100 * (d1 - d0) / d0
			degs = append(degs, deg)
			if deg > worst {
				worst, worstKey = deg, k
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(degs)))
	fmt.Printf("degradation due to MTCMOS at W/L=%g over %d toggling transitions:\n", wl, len(degs))
	fmt.Printf("  worst %.1f%%  median %.1f%%  p90 %.1f%%\n",
		degs[0], degs[len(degs)/2], degs[len(degs)/10])
	oa, ob := worstKey[0]%half, worstKey[0]/half
	na, nb := worstKey[1]%half, worstKey[1]/half
	fmt.Printf("  worst transition: (a=%d,b=%d) -> (a=%d,b=%d)\n\n", oa, ob, na, nb)

	// Histogram.
	buckets := make([]int, 10)
	width := degs[0]/float64(len(buckets)) + 1e-9
	for _, d := range degs {
		b := int(d / width)
		if b >= len(buckets) {
			b = len(buckets) - 1
		}
		if b < 0 {
			b = 0
		}
		buckets[b]++
	}
	fmt.Println("histogram (the long tail is why worst-vector identification matters):")
	for i, n := range buckets {
		bar := ""
		for j := 0; j < n/8+1 && n > 0; j++ {
			bar += "#"
		}
		fmt.Printf("  %5.1f-%5.1f%%  %4d  %s\n", float64(i)*width, float64(i+1)*width, n, bar)
	}
}
