package core

import (
	"fmt"
	"strings"

	"tpspace/internal/netsim"
	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
)

// Section 4.3 of the paper weighs two substrates for connecting
// boards to the space server: TCP-IP over Ethernet ("natural software
// abstraction ... [but] the cost of such a connection may be too
// high; it would require the presence of active devices (e.g.,
// switches)") against the low-cost TpWIRE serial link. This file
// makes that comparison runnable: the same tuplespace exchange, timed
// over an Ethernet-class switched star (netsim) and over TpWIRE at
// its maximum and calibrated speeds.

// SubstrateResult is one row of the comparison.
type SubstrateResult struct {
	// Name labels the substrate.
	Name string
	// Exchange is the time for the write-entry + take exchange.
	Exchange sim.Duration
	// Hardware summarises what the substrate needs.
	Hardware string
}

// CompareConfig parameterises the comparison.
type CompareConfig struct {
	// PayloadBytes sizes the entry, as in the impact scenario.
	PayloadBytes int
	// EthernetBps is the switched-star link speed in bytes/second
	// (default 10 Mbit/s = 1.25e6).
	EthernetBps float64
	Seed        int64
}

// DefaultCompareConfig matches the Table 4 entry size.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{PayloadBytes: 24, EthernetBps: 1.25e6, Seed: 1}
}

// exchange runs write+take through a client connection bound to a
// fresh server stack and returns the elapsed simulated time.
func exchange(k *sim.Kernel, cliConn, srvConn transport.Conn, payloadBytes int, horizon sim.Duration) (sim.Duration, bool) {
	sp := space.New(space.SimRuntime{K: k})
	wrapper.NewSimServerStack(k, srvConn, sp, sim.Millisecond)
	cli := wrapper.NewClient(cliConn)

	payload := make([]byte, payloadBytes)
	entry := tuple.New("case-study", tuple.Int("id", 1), tuple.Bytes("vector", payload))
	tmpl := tuple.New("case-study", tuple.Int("id", 1), tuple.AnyBytes("vector"))

	var done sim.Duration
	ok := false
	cli.Write(entry, space.NoLease, func(w bool, _ string) {
		if !w {
			return
		}
		cli.Take(tmpl, sim.Forever, func(_ tuple.Tuple, o bool) {
			ok = o
			done = sim.Duration(k.Now())
			k.Stop()
		})
	})
	k.RunUntil(sim.Time(horizon))
	return done, ok
}

// CompareSubstrates times the same exchange over three substrates and
// returns the rows, slowest last.
func CompareSubstrates(cfg CompareConfig) []SubstrateResult {
	def := DefaultCompareConfig()
	if cfg.PayloadBytes == 0 {
		cfg.PayloadBytes = def.PayloadBytes
	}
	if cfg.EthernetBps == 0 {
		cfg.EthernetBps = def.EthernetBps
	}

	var rows []SubstrateResult

	// Ethernet-class switched star: client -- switch -- server.
	{
		k := sim.NewKernel(cfg.Seed)
		net := netsim.New(k)
		client := net.NewNode("board")
		sw := net.NewNode("switch")
		server := net.NewNode("host")
		// ConnectDuplex installs the switch's direct routes; the ends
		// only need their default route through the switch.
		cs, _ := net.ConnectDuplex(client, sw, cfg.EthernetBps, 10*sim.Microsecond, 0)
		_, shc := net.ConnectDuplex(sw, server, cfg.EthernetBps, 10*sim.Microsecond, 0)
		net.SetRoute(client, server, cs)
		net.SetRoute(server, client, shc)
		cliConn := transport.NewNetsimConn(net, client, server)
		srvConn := transport.NewNetsimConn(net, server, client)
		t, ok := exchange(k, cliConn, srvConn, cfg.PayloadBytes, 10*sim.Second)
		k.Shutdown()
		name := "Ethernet/TCP 10 Mbit/s (switched)"
		if !ok {
			t = 0
		}
		rows = append(rows, SubstrateResult{
			Name: name, Exchange: t,
			Hardware: "NICs + switch + full TCP/IP stack per board",
		})
	}

	// TpWIRE at its specified maximum (1 Mbyte/s = 8 Mbit/s).
	rows = append(rows, runTpwireExchange(cfg, 8_000_000,
		"TpWIRE 1-wire @ max speed (8 Mbit/s)",
		"one signal wire, no active devices"))

	// TpWIRE at the Table 4 calibrated speed.
	rows = append(rows, runTpwireExchange(cfg, 1200,
		"TpWIRE 1-wire @ 1200 bit/s (Table 4 calibration)",
		"one signal wire, no active devices"))

	return rows
}

func runTpwireExchange(cfg CompareConfig, bitrate float64, name, hw string) SubstrateResult {
	ic := DefaultImpactConfig()
	ic.Bus.BitRate = bitrate
	ic.CBRRate = 0
	ic.PayloadBytes = cfg.PayloadBytes
	ic.TakeDelay = sim.Millisecond // back-to-back: measure the exchange only
	ic.Horizon = 3000 * sim.Second
	ic.CosimPerMsg = 0 // pure substrate comparison, no cosim toll
	ic.CosimPerByte = 0
	ic.Seed = cfg.Seed
	res := RunImpact(ic)
	out := SubstrateResult{Name: name, Hardware: hw}
	if res.TakeOK {
		out.Exchange = res.Total
	}
	return out
}

// FormatComparison renders the substrate comparison.
func FormatComparison(rows []SubstrateResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Substrate comparison (Section 4.3): write-entry + take, same payload")
	for _, r := range rows {
		cell := "did not complete"
		if r.Exchange > 0 {
			cell = r.Exchange.String()
		}
		fmt.Fprintf(&b, "  %-46s %-14s %s\n", r.Name, cell, r.Hardware)
	}
	return b.String()
}
