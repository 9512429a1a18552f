// Telemetry for the read fan-out tier. Package-global families shared
// by every relay in the process — per-relay detail stays on the relay's
// own atomics (surfaced via Stats), keeping cardinality flat.

package relay

import "github.com/ipa-grid/ipa/internal/obs"

var (
	obsSubscriptions = obs.GetGauge("ipa_relay_subscriptions",
		"Open upstream session subscriptions across all relays.")
	obsUpPolls = obs.GetCounter("ipa_relay_upstream_polls_total",
		"Subscription poll exchanges issued upstream.")
	obsDownPolls = obs.GetCounter("ipa_relay_downstream_polls_total",
		"Downstream reads re-served from relay-local copies.")
	obsRebaselines = obs.GetCounter("ipa_relay_rebaselines_total",
		"Subscription re-baselines after an upstream epoch change or regression.")
	obsSyncSeconds = obs.GetHistogram("ipa_relay_sync_seconds",
		"One subscription exchange (upstream poll + local install) in seconds.", nil)
	obsSSEClients = obs.GetGauge("ipa_relay_sse_clients",
		"Live SSE clients attached to the gateway.")
	obsSSEFrames = obs.GetCounter("ipa_relay_sse_frames_total",
		"SSE update frames pushed to clients (post-coalescing).")
	obsSSECoalesced = obs.GetCounter("ipa_relay_sse_coalesced_total",
		"Upstream versions folded into an already-pending SSE frame.")
)
