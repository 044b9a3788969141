// Busestimate: one co-simulated Figure 7 run, narrated.
//
// This example drives the full estimation pipeline of the paper — C++
// client -> gdb/SystemC co-simulation bridge -> TpWIRE bus model ->
// socket wrapper -> RMI -> SpaceServer — and reports where the time
// goes, for one cell of Table 4 (CBR 0.3 B/s on the 1-wire bus).
//
//	go run ./examples/busestimate
package main

import (
	"fmt"

	"tpspace/internal/core"
	"tpspace/internal/sim"
	"tpspace/internal/tpwire"
)

func main() {
	cfg := core.DefaultImpactConfig()
	cfg.CBRRate = 0.3

	fmt.Println("Figure 7 case study: estimating tuplespace cost on the TpWIRE bus")
	fmt.Printf("  bus: %.0f bit/s, %d wire(s); entry payload %d bytes; lease %v\n",
		cfg.Bus.BitRate, cfg.Bus.Wires, cfg.PayloadBytes, cfg.Lease)
	fmt.Printf("  background CBR: %g B/s of 1-byte packets (Slave2 -> Slave4)\n\n", cfg.CBRRate)

	res := core.RunImpact(cfg)

	fmt.Printf("timeline:\n")
	fmt.Printf("  t=0        client issues write-entry (XML over the co-simulated bus)\n")
	fmt.Printf("  t=%-8.1f write acknowledged\n", res.WriteDone.Seconds())
	fmt.Printf("  t=%-8.1f client issues take\n", res.TakeIssued.Seconds())
	if res.TakeOK {
		fmt.Printf("  t=%-8.1f take returned the entry -> completion %s\n",
			res.Total.Seconds(), core.ImpactCell(res))
	} else {
		fmt.Printf("  ...        take found nothing: the entry's %v lease lapsed -> %s\n",
			cfg.Lease, core.ImpactCell(res))
	}

	fmt.Printf("\nbus accounting:\n")
	fmt.Printf("  %d frames on the wire, busy %.1fs\n", res.BusFrames, res.BusBusy.Seconds())
	fmt.Printf("  %d background packets delivered\n", res.CBRDelivered)

	// What would the 2-wire upgrade buy? Run the same cell on the
	// scaled bus — the estimation the methodology exists to answer.
	cfg2 := cfg
	cfg2.Bus.Wires = 2
	res2 := core.RunImpact(cfg2)
	fmt.Printf("\n2-wire estimate: completion %s", core.ImpactCell(res2))
	if res.TakeOK && res2.TakeOK {
		fmt.Printf(" (%.0f%% of the 1-wire time)", 100*float64(res2.Total)/float64(res.Total))
	}
	fmt.Println()

	// And the raw protocol numbers from the analytic model.
	bus := cfg.Bus
	if err := bus.Normalize(); err != nil {
		panic(err)
	}
	a := tpwire.NewAnalytic(bus)
	fmt.Printf("\nanalytic cross-check: one register transaction to Slave3 costs %v on this bus\n",
		a.TransactionTime(2))
	_ = sim.Second
}
