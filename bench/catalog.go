package main

// metricDef names one reported metric. The lists below are the single
// source for units and zero-filling; BENCHMARK.json at the repository
// root repeats them for the driver, and bench_test.go fails when the
// two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which carry none).
	Bound float64
}

// endToEnd metrics are what a user of the system sees. The driver wants
// every one of them from every workload, so each name has one meaning
// per workload (README.md, "End-to-end metrics"):
//
//	                  session_cold      script_rerun     live_stream          viewer_fanout
//	response_p50_ms   turnaround        rerun            fill→viewer p50      fill→SSE frame p50
//	response_tail_ms  turnaround p75    rerun p75        fill→viewer p95      fill→SSE frame p90
//	milestone_p50_ms  staging           first result     Transport.Send       joiner full sync
//	work_per_s        events/s          events/s         burst publishes/s    viewer polls/s
//	cpu_ms_per_op     per session       per rerun        per publish          per viewer poll
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"response_p50_ms", "ms", "lower", 0.25},
	{"response_tail_ms", "ms", "lower", 0.25},
	{"milestone_p50_ms", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// perLayer metrics come from the traced pass: spans around the calls the
// harness makes, probes that replay the workload's own inputs through
// isolated instances of one layer, and differences of counters the
// program exports. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"core.grid_boot_ms", "ms", "lower", 0},
	{"gsi.proxy_connect_ms", "ms", "lower", 0},
	{"events.generate_mb_per_s", "MB/s", "higher", 0},
	{"session.create_ms", "ms", "lower", 0},
	{"session.move_whole_ms", "ms", "lower", 0},
	{"session.split_ms", "ms", "lower", 0},
	{"session.move_parts_ms", "ms", "lower", 0},
	{"session.split_imbalance", "ratio", "lower", 0},
	{"splitter.split_mb_per_s", "MB/s", "higher", 0},
	{"storage.put_mb_per_s", "MB/s", "higher", 0},
	{"session.load_code_ms", "ms", "lower", 0},
	{"session.control_ms", "ms", "lower", 0},
	{"wsrf.status_call_us", "us", "lower", 0},
	{"session.close_ms", "ms", "lower", 0},
	{"storage.scratch_leaked_mb_per_session", "MB", "lower", 0},
	{"session.finished_incomplete_ratio", "ratio", "lower", 0},
	{"dataset.iter_ns_per_record", "ns", "lower", 0},
	{"events.unmarshal_ns_per_event", "ns", "lower", 0},
	{"events.higgs_process_ns_per_event", "ns", "lower", 0},
	{"engine.native_events_per_s", "1/s", "higher", 0},
	{"engine.script_events_per_s", "1/s", "higher", 0},
	{"engine.publishes_per_run", "count", "lower", 0},
	{"engine.first_publish_ms", "ms", "lower", 0},
	{"engine.live_events_per_s", "1/s", "higher", 0},
	{"script.compile_ms", "ms", "lower", 0},
	{"aida.fill_ns", "ns", "lower", 0},
	{"aida.delta_build_us", "us", "lower", 0},
	{"aida.delta_encode_us", "us", "lower", 0},
	{"aida.delta_decode_us", "us", "lower", 0},
	{"aida.delta_bytes", "B", "lower", 0},
	{"aida.frame_restore_us", "us", "lower", 0},
	{"aida.full_tree_bytes", "B", "lower", 0},
	{"merge.publish_us", "us", "lower", 0},
	{"merge.publish_wal_us", "us", "lower", 0},
	{"merge.wal_bytes_per_publish", "B", "lower", 0},
	{"merge.wal_fsync_s", "s", "lower", 0},
	{"merge.poll_idle_ns", "ns", "lower", 0},
	{"merge.poll_incr_us", "us", "lower", 0},
	{"merge.poll_full_us", "us", "lower", 0},
	{"merge.frame_cache_hit_ratio", "ratio", "higher", 0},
	{"merge.fast_poll_ratio", "ratio", "higher", 0},
	{"merge.reset_ms", "ms", "lower", 0},
	{"shard.route_publish_us", "us", "lower", 0},
	{"shard.mirror_publish_us", "us", "lower", 0},
	{"shard.mirror_lag_publishes", "count", "lower", 0},
	{"shard.mirror_backpressure_total", "count", "lower", 0},
	{"shard.handoff_ms", "ms", "lower", 0},
	{"relay.sync_us", "us", "lower", 0},
	{"relay.poll_us", "us", "lower", 0},
	{"relay.staleness_ms", "ms", "lower", 0},
	{"relay.fanout", "ratio", "higher", 0},
	{"relay.rebaselines_total", "count", "lower", 0},
	{"relay.sse_frames_per_s", "1/s", "higher", 0},
	{"relay.sse_coalesced_ratio", "ratio", "higher", 0},
	{"rmi.call_idle_us", "us", "lower", 0},
	{"rmi.server_call_s", "s", "lower", 0},
	{"rmi.client_connects_total", "count", "lower", 0},
	{"core.client_poll_changed_us", "us", "lower", 0},
	{"core.viewer_freshness_p50_ms", "ms", "lower", 0},
	{"core.viewer_freshness_p99_ms", "ms", "lower", 0},
	{"gen.late_p99_us", "us", "lower", 0},
	{"gen.backlog_max", "count", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"budget.coverage_ratio", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
	// setup builds everything the timed section needs: grid, dataset,
	// reference, warm-up.
	setup func(rc *runCtx) (fixture, error)
	// setupReps is how many times the untraced pass sets up; setup_s is
	// the median, so one slow boot cannot move it. The streaming
	// workloads set up in milliseconds and repeat more often.
	setupReps int
}

var workloads = []workloadDef{
	{"session_cold", "Table 1 workflow, fresh session each time: staging, native engines and fill dominate; merge/relay idle", setupSessionCold, 3},
	{"script_rerun", "edit-rewind-rerun loop in one open session: script interpreter, WSRF control plane, merge reset path", setupScriptRerun, 3},
	{"live_stream", "open-loop wide-tree publishes through shards, K=1 mirror, WAL and relay: write path; engines idle", setupLiveStream, 7},
	{"viewer_fanout", "slow writes under poll, full-sync and SSE readers on the relay: read path; engines idle", setupViewerFanout, 5},
}
