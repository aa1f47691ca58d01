// Degraded demonstrates planning around link faults: the same 4-node A100
// reduction is planned on the pristine fabric, on a fabric with one GPU's
// NVSwitch uplink throttled 10x, and on a fabric with a down NIC. The
// throttle reshuffles the ranking (the stale pristine winner pays a
// penalty over re-planning); the outage makes every route crossing the
// dead link infinite, and re-planning surfaces the strategies that avoid
// it.
//
// Run with: go run ./examples/degraded
package main

import (
	"fmt"
	"log"
	"math"

	"p2"
)

func plan(sys *p2.System) []*p2.Strategy {
	res, err := p2.Plan(sys, p2.Request{Axes: []int{4, 16}, ReduceAxes: []int{0}})
	if err != nil {
		log.Fatal(err)
	}
	return res.Strategies
}

func timeOf(v float64) string {
	if math.IsInf(v, 1) {
		return "never (down link)"
	}
	return fmt.Sprintf("%.4fs", v)
}

func degrade(pristine *p2.System, spec string) {
	faults, err := p2.ParseFaults(pristine, spec)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := pristine.WithOverrides(faults...)
	if err != nil {
		log.Fatal(err)
	}
	base := plan(pristine)
	shifted := plan(sys)

	// The stale plan: what the pristine winner costs on the degraded
	// fabric (both runs rank the identical candidate set, so match by
	// placement and program).
	stale := math.Inf(1)
	for _, s := range shifted {
		if s.Matrix.String() == base[0].Matrix.String() &&
			s.Program.String() == base[0].Program.String() {
			stale = s.Predicted
		}
	}
	fmt.Printf("\n=== fault %q ===\n", spec)
	fmt.Printf("pristine winner:  %v via %v — %s degraded (stale plan)\n",
		base[0].Matrix, base[0].Program, timeOf(stale))
	fmt.Printf("re-planned winner: %v via %v — %s\n",
		shifted[0].Matrix, shifted[0].Program, timeOf(shifted[0].Predicted))
	switch {
	case math.IsInf(stale, 1) && !math.IsInf(shifted[0].Predicted, 1):
		fmt.Println("re-planning routes around the outage the stale plan crosses")
	case stale > shifted[0].Predicted:
		fmt.Printf("re-planning is %.2fx faster than keeping the stale plan\n",
			stale/shifted[0].Predicted)
	default:
		fmt.Println("the pristine winner survives this fault")
	}
}

func main() {
	sys := p2.A100System(4)
	fmt.Printf("system %s %v\n", sys.Name, sys)
	degrade(sys, "gpu:0/0:bw/10")                 // one NVSwitch uplink at a tenth
	degrade(sys, "node:2:down")                   // a dead NIC
	degrade(sys, "node:*:lat*4;gpu:1/3:loss=0.2") // fleet-wide slow + one lossy link
}
