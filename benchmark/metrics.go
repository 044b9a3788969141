package main

// metricDef is one metric of the benchmark's vocabulary. The tables
// in this file are what the program prints and compares with;
// BENCHMARK.json states the same names, units, directions and bounds
// for the driver, and the smoke test fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening of the median that counts as a regression; 0 = exact
	// AbsFloor widens the bound for small values: a worsening below it
	// is never a regression (setup_s: 0.05 s).
	AbsFloor float64
	// On lists the workloads that report the metric; nil means all.
	On []string
}

// universalMetrics are the end_to_end list of BENCHMARK.json. The
// driver contract wants every workload to print every end-to-end
// metric and the quartile spread of ten runs to stay inside a bound
// of at most 0.25, so the list is the part of the vocabulary that has
// a meaning on all seven workloads (README.md says what an "op" is on
// each) and holds that steady on the reference sandbox.
var universalMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, AbsFloor: 0.05},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "heap_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
}

var opWorkloads = []string{"tcp-rtt", "tcp-window32", "pipe-window32", "space-mix-500k"}

// nativeMetrics belong to some workloads only, or are 0 by design. A
// set of runs prints them and -compare applies the bounds below, but
// BENCHMARK.json's end_to_end list cannot hold them.
var nativeMetrics = []metricDef{
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10, On: opWorkloads},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.10, On: opWorkloads},
	{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, On: []string{"taskbag-pipe"}},
	{Name: "unit_p50_us", Unit: "us", Better: "lower", Bound: 0.10, On: []string{"taskbag-pipe"}},
	{Name: "unit_p99_us", Unit: "us", Better: "lower", Bound: 0.10, On: []string{"taskbag-pipe"}},
	{Name: "failed_ops_share", Unit: "share", Better: "lower", Bound: 0},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.10, On: []string{"journal-recover"}},
	{Name: "journal_bytes_per_user_byte", Unit: "B/B", Better: "lower", Bound: 0, On: []string{"journal-recover"}},
	{Name: "sim_s_per_host_s", Unit: "sim_s/s", Better: "higher", Bound: 0.10, On: []string{"sim-estimate"}},
	{Name: "table4_err_pct", Unit: "%", Better: "lower", Bound: 0, On: []string{"sim-estimate"}},
	{Name: "failover_recover_sim_ms", Unit: "sim_ms", Better: "lower", Bound: 0, On: []string{"sim-estimate"}},
}

func endToEndDefs() []metricDef {
	return append(append([]metricDef(nil), universalMetrics...), nativeMetrics...)
}

func isNativeMetric(name string) bool {
	for _, d := range nativeMetrics {
		if d.Name == name {
			return true
		}
	}
	return false
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// perLayerMetrics is the cost ladder, layer by layer in the order a
// client op crosses them; none has a bound.
var perLayerMetrics = []metricDef{
	{Name: "tuple.match_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.route_sig_ns", Unit: "ns", Better: "lower"},

	{Name: "xmlcodec.bin_request_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "xmlcodec.bin_request_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "xmlcodec.bin_response_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "xmlcodec.bin_response_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "xmlcodec.bin_request_bytes", Unit: "B", Better: "lower"},
	{Name: "xmlcodec.bin_roundtrip_ns_4k", Unit: "ns", Better: "lower"},
	{Name: "xmlcodec.xml_request_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "xmlcodec.xml_request_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "xmlcodec.xml_allocs_per_roundtrip", Unit: "count", Better: "lower"},
	{Name: "xmlcodec.xml_request_bytes", Unit: "B", Better: "lower"},

	{Name: "transport.pipe_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_frame_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.tcp_frames_per_write_batch", Unit: "count", Better: "higher"},
	{Name: "transport.tcp_frames_per_write_batch_rtt", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_mb_per_s_4k", Unit: "MB/s", Better: "higher"},

	{Name: "rmi.call_ns", Unit: "ns", Better: "lower"},

	{Name: "wrapper.pipe_op_ns", Unit: "ns", Better: "lower"},
	{Name: "wrapper.self_ns", Unit: "ns", Better: "lower"},
	{Name: "wrapper.self_share", Unit: "share", Better: "lower"},
	{Name: "wrapper.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "wrapper.parked_take_wake_ns", Unit: "ns", Better: "lower"},
	{Name: "wrapper.notify_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "wrapper.notify_deliveries", Unit: "count", Better: "higher"},

	{Name: "space.write_ns", Unit: "ns", Better: "lower"},
	{Name: "space.take_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "space.read_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "space.take_wildcard_ns", Unit: "ns", Better: "lower"},
	{Name: "space.take_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "space.write_allocs", Unit: "count", Better: "lower"},
	{Name: "space.lease_write_ns", Unit: "ns", Better: "lower"},
	{Name: "space.lease_cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "space.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "space.write_ns_10k", Unit: "ns", Better: "lower"},
	{Name: "space.take_hit_ns_10k", Unit: "ns", Better: "lower"},
	{Name: "space.waiter_wake_ns", Unit: "ns", Better: "lower"},
	{Name: "space.journal_append_ns", Unit: "ns", Better: "lower"},
	{Name: "space.journal_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "space.replay_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "space.flush_ms", Unit: "ms", Better: "lower"},

	{Name: "sim.events_per_host_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},

	{Name: "tpwire.frames_per_host_s", Unit: "1/s", Better: "higher"},
	{Name: "tpwire.frames_per_payload_byte", Unit: "count", Better: "lower"},
	{Name: "tpwire.payload_Bps_1mbit", Unit: "B/s", Better: "higher"},

	{Name: "netsim.packets_per_host_s", Unit: "1/s", Better: "higher"},

	{Name: "core.table4_host_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sweep_host_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_grid_host_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_grid_allocs", Unit: "count", Better: "lower"},
	{Name: "core.table3_host_ms", Unit: "ms", Better: "lower"},
	{Name: "core.table3_scale", Unit: "ratio", Better: "lower"},

	{Name: "cluster.chaos_grid_host_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.acked_per_sim_s", Unit: "1/sim_s", Better: "higher"},
	{Name: "cluster.detect_sim_ms", Unit: "sim_ms", Better: "lower"},

	{Name: "ledger.tcp_rtt_residual_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}
