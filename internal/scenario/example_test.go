package scenario_test

import (
	"fmt"

	"bate/internal/routing"
	"bate/internal/scenario"
	"bate/internal/topo"
)

// Example enumerates the pruned failure-scenario set of the toy WAN.
func Example() {
	n := topo.Toy()
	set, err := scenario.Enumerate(n, nil, 1) // at most 1 concurrent failure, no risk groups
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d scenarios, residual probability %.6f\n", len(set.Scenarios), set.Residual)
	fmt.Printf("all-up probability %.4f\n", set.Scenarios[0].Prob)
	// Output:
	// 9 scenarios, residual probability 0.001755
	// all-up probability 0.9198
}

// ExampleClassCache_ClassesFor aggregates scenarios into tunnel-state
// classes — the trick that keeps BATE's scheduling LP small.
func ExampleClassCache_ClassesFor() {
	n := topo.Toy()
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	tunnels := routing.YenKSP(n, dc1, dc4, 2)
	classes, _, err := scenario.NewClassCache(0).ClassesFor(n, nil, tunnels, 2)
	if err != nil {
		panic(err)
	}
	for _, c := range classes {
		fmt.Printf("tunnels up %02b: p=%.6f\n", c.UpMask, c.Prob)
	}
	// Output:
	// tunnels up 11: p=0.959038
	// tunnels up 10: p=0.039959
	// tunnels up 01: p=0.000961
	// tunnels up 00: p=0.000038
}
