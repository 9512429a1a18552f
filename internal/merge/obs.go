// Telemetry hooks for the merge fabric: publish/poll latency, traffic
// and cache counters, write-section queue depth, and WAL fsync lag.
// Everything here is a package-global family shared by
// all sessions — per-session detail stays on the session's own atomics
// (surfaced via Stats/SessionList), keeping metric cardinality flat no
// matter how many sessions a shard holds.

package merge

import "github.com/ipa-grid/ipa/internal/obs"

var (
	obsPublishSeconds = obs.GetHistogram("ipa_merge_publish_seconds",
		"Publish (snapshot ingest + merge) latency in seconds.", nil)
	obsPollSeconds = obs.GetHistogram("ipa_merge_poll_seconds",
		"Poll (incremental read) latency in seconds.", nil)
	obsPublishes = obs.GetCounter("ipa_merge_publishes_total",
		"Snapshot publishes ingested (all sessions).")
	obsPolls = obs.GetCounter("ipa_merge_polls_total",
		"Client polls served (all sessions, fast path included).")
	obsFastPolls = obs.GetCounter("ipa_merge_fast_polls_total",
		"Polls answered by the lock-free quiescent fast path.")
	obsCacheHits = obs.GetCounter("ipa_merge_frame_cache_total",
		"Poll encode-cache lookups, by result.", "result", "hit")
	obsCacheMisses = obs.GetCounter("ipa_merge_frame_cache_total",
		"Poll encode-cache lookups, by result.", "result", "miss")
	obsPubWaiting = obs.GetGauge("ipa_merge_publish_waiting",
		"Publishes currently inside or queued for a session write section.")
	obsWALFsyncSeconds = obs.GetHistogram("ipa_merge_wal_fsync_seconds",
		"WAL fsync latency in seconds.", nil)
	obsWALUnsynced = obs.GetGauge("ipa_merge_wal_unsynced_records",
		"WAL records appended since the last fsync (fsync lag).")
)
