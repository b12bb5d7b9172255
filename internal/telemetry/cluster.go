package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Cluster scraping: the client half of the introspection plane.
// tycotop, `tycosh cluster`, and the integration tests all consume
// nodes' HTTP endpoints through this code, so the live rendering and
// the tested rendering cannot drift apart.

// NodeView is one node's scrape result.
type NodeView struct {
	Node    uint32             `json:"node"`
	Addr    string             `json:"addr"`
	Err     string             `json:"err,omitempty"`
	Health  Health             `json:"health"`
	Status  NodeStatus         `json:"status"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// TS is the node's retained time series (/timeseries), nil when the
	// node predates retention or runs with it disabled — the scrape
	// tolerates its absence.
	TS *TSDoc `json:"ts,omitempty"`
}

// ClusterView aggregates every node's scrape, ordered by node ID.
type ClusterView struct {
	Nodes []NodeView `json:"nodes"`
}

// WindowDist merges one histogram's retained windows across every
// scraped node: the cluster-wide distribution of the last `window` of
// traffic. Bucketed merging is exact (DESIGN.md §17), so quantiles of
// the merged Dist equal quantiles of the union sample stream to within
// bucket resolution — no quantile-of-quantiles averaging. Nodes
// without retention contribute nothing.
func (cv ClusterView) WindowDist(name string, window time.Duration) *stats.Dist {
	merged := &stats.Dist{}
	for _, v := range cv.Nodes {
		if v.TS == nil {
			continue
		}
		if d := v.TS.WindowDist(name, window); d != nil {
			merged.Merge(d)
		}
	}
	return merged
}

// scrapeJSON fetches one JSON endpoint into v. A non-2xx status is
// not an error when the body still decodes (healthz answers 503 with
// a valid document for a down node).
func scrapeJSON(client *http.Client, base, path string, v any) error {
	resp, err := client.Get("http://" + base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// ScrapeMetrics fetches and strictly parses one node's /metrics.
func ScrapeMetrics(client *http.Client, addr string) ([]OMFamily, error) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	return ParseOpenMetrics(body)
}

// ScrapeNode collects one node's health, status, and metrics.
func ScrapeNode(client *http.Client, node uint32, addr string) NodeView {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	v := NodeView{Node: node, Addr: addr}
	if err := scrapeJSON(client, addr, "/healthz", &v.Health); err != nil {
		v.Err = err.Error()
		return v
	}
	if err := scrapeJSON(client, addr, "/statusz", &v.Status); err != nil {
		v.Err = err.Error()
		return v
	}
	fams, err := ScrapeMetrics(client, addr)
	if err != nil {
		v.Err = err.Error()
		return v
	}
	v.Metrics = OMValues(fams)
	// Time-series retention is optional and newer than the rest of the
	// plane: a node without /timeseries is still a healthy scrape.
	var ts TSDoc
	if err := scrapeJSON(client, addr, "/timeseries", &ts); err == nil && ts.IntervalMs > 0 {
		v.TS = &ts
	}
	return v
}

// ScrapeCluster scrapes every advertised endpoint concurrently. A
// node that fails to answer still appears in the view, with Err set —
// an unreachable node is a finding, not a gap in the table.
func ScrapeCluster(endpoints map[uint32]string, timeout time.Duration) ClusterView {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	views := make([]NodeView, 0, len(endpoints))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for node, addr := range endpoints {
		wg.Add(1)
		go func(node uint32, addr string) {
			defer wg.Done()
			v := ScrapeNode(client, node, addr)
			mu.Lock()
			views = append(views, v)
			mu.Unlock()
		}(node, addr)
	}
	wg.Wait()
	sort.Slice(views, func(i, j int) bool { return views[i].Node < views[j].Node })
	return ClusterView{Nodes: views}
}

// JSON renders the view, indented.
func (cv ClusterView) JSON() []byte {
	b, err := json.MarshalIndent(cv, "", "  ")
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return append(b, '\n')
}

// RenderTable renders the aggregated cluster table tycotop and
// `tycosh cluster` print: one row per node plus a totals row.
// Columns are derived from /statusz and /metrics; HEALTH from
// /healthz.
func (cv ClusterView) RenderTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-9s %-9s %-6s %-6s %-6s %-8s %-8s %-10s %-10s %-8s %-7s %-5s %-7s %-7s %-5s %s\n",
		"NODE", "HEALTH", "MEMB", "SITES", "RUNQ", "INBOX", "WAITIMP", "STALLS", "SENT", "RECV", "UNACKED", "FAILED", "OVLD", "SHED", "SLO", "BURN", "ADDR")
	var totSites, totRunq, totInbox, totWait, totStalls, totUnacked int
	var totSent, totRecv, totFailed, totShed uint64
	for _, v := range cv.Nodes {
		if v.Err != "" {
			fmt.Fprintf(&b, "%-5d %-9s %s (%s)\n", v.Node, "unreach", v.Err, v.Addr)
			continue
		}
		var runq, inbox, wait int
		var sent, recv uint64
		for _, s := range v.Status.Sites {
			runq += s.RunQueue
			inbox += s.Inbox
			wait += s.WaitingImports
			sent += s.Sent
			recv += s.Recv
		}
		unacked := 0
		if v.Status.Rel != nil {
			unacked = v.Status.Rel.Unacked
		}
		fmt.Fprintf(&b, "%-5d %-9s %-9s %-6d %-6d %-6d %-8d %-8d %-10d %-10d %-8d %-7d %-5s %-7d %-7s %-5s %s\n",
			v.Node, v.Health.Status, memberSummary(v.Status), len(v.Status.Sites), runq, inbox, wait,
			len(v.Status.Stalls), sent, recv, unacked, v.Status.DeliveryFailures,
			overloadState(v.Status), shedTotal(v.Status), sloSummary(v.Status), burnSummary(v.Status), v.Addr)
		totSites += len(v.Status.Sites)
		totRunq += runq
		totInbox += inbox
		totWait += wait
		totStalls += len(v.Status.Stalls)
		totUnacked += unacked
		totSent += sent
		totRecv += recv
		totFailed += v.Status.DeliveryFailures
		totShed += shedTotal(v.Status)
	}
	fmt.Fprintf(&b, "%-5s %-9s %-9s %-6d %-6d %-6d %-8d %-8d %-10d %-10d %-8d %-7d %-5s %-7d\n",
		"all", "", "", totSites, totRunq, totInbox, totWait, totStalls, totSent, totRecv, totUnacked, totFailed, "", totShed)
	for _, v := range cv.Nodes {
		for _, sv := range v.Status.SLO {
			if sv.State == "ok" || sv.State == "" {
				continue // only burning objectives earn a detail line
			}
			fmt.Fprintf(&b, "slo: node %d %s %s: observed %s target %s, burn fast %.1f slow %.1f %s\n",
				v.Node, sv.Name, sv.State, sloValue(sv, sv.Observed), sloValue(sv, sv.Target),
				sv.BurnFast, sv.BurnSlow, BurnSparkline(sv.Trend))
		}
		if ov := v.Status.Overload; ov != nil && ov.State == "shed" {
			fmt.Fprintf(&b, "overload: node %d shedding (admission %d, expired %d, rel %d, fetch retries %d)\n",
				v.Node, ov.AdmissionSheds, ov.ExpiredDrops, ov.RelExpired, ov.FetchRetries)
		}
		for _, st := range v.Status.Stalls {
			fmt.Fprintf(&b, "stall: node %d site %q (%d) %s for %dms %s\n",
				v.Node, st.Name, st.Site, st.Kind, st.AgeMs, st.Detail)
		}
		for _, r := range v.Health.Reasons {
			fmt.Fprintf(&b, "health: node %d: %s\n", v.Node, r)
		}
		if ns := v.Status.NS; ns != nil {
			fmt.Fprintf(&b, "ns: node %d %s\n", v.Node, nsSummary(ns))
		}
		for _, m := range v.Status.Members {
			if m.State == "alive" {
				continue // only trouble earns a detail line
			}
			fmt.Fprintf(&b, "member: node %d sees %d %s (inc %d, phi %.1f, silent %dms)\n",
				v.Node, m.Node, m.State, m.Incarnation, m.Phi, m.LastHeardMs)
		}
	}
	return b.String()
}

// sloSummary compresses a node's SLO verdicts into the SLO column:
// the worst objective state, or "-" when the node tracks none.
func sloSummary(st NodeStatus) string {
	if len(st.SLO) == 0 {
		return "-"
	}
	return WorstSLOState(st.SLO)
}

// burnSummary is the BURN column: the highest slow-window burn rate
// across the node's objectives (1.0 = burning exactly the budget).
func burnSummary(st NodeStatus) string {
	if len(st.SLO) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", MaxSLOBurn(st.SLO))
}

// sloValue formats an observed/target value in the objective's native
// unit: latency objectives carry nanoseconds, ratio objectives a
// fraction.
func sloValue(v SLOVerdict, x float64) string {
	if strings.HasPrefix(v.Objective, "ratio") {
		return fmt.Sprintf("%.3f%%", x*100)
	}
	return time.Duration(x).Round(time.Microsecond).String()
}

// overloadState compresses the overload section into the OVLD column:
// the admission controller's verdict ("ok"/"warn"/"shed"), or "-" when
// the node runs without admission control.
func overloadState(st NodeStatus) string {
	if st.Overload == nil {
		return "-"
	}
	return st.Overload.State
}

// shedTotal is the SHED column: every message this node gave up on for
// overload-protection reasons — admission rejections, deadline-expired
// deliveries, and frames the reliable layer stopped retransmitting.
func shedTotal(st NodeStatus) uint64 {
	if st.Overload == nil {
		return 0
	}
	return st.Overload.AdmissionSheds + st.Overload.ExpiredDrops + st.Overload.RelExpired
}

// nsSummary renders a node's name-service detail line: routing map
// version and per-shard key counts (when the node sees the sharded
// authority), client cache effectiveness, and the breaker verdict.
func nsSummary(ns *NSStatus) string {
	var parts []string
	if ns.MapVersion > 0 {
		parts = append(parts, fmt.Sprintf("map v%d (%d transitions, %d forwards, %d migrated)",
			ns.MapVersion, ns.Transitions, ns.Forwards, ns.Migrated))
	}
	if len(ns.ShardKeys) > 0 {
		shards := make([]uint32, 0, len(ns.ShardKeys))
		for s := range ns.ShardKeys {
			shards = append(shards, s)
		}
		sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })
		kv := make([]string, 0, len(shards))
		for _, s := range shards {
			kv = append(kv, fmt.Sprintf("%d:%d", s, ns.ShardKeys[s]))
		}
		parts = append(parts, "shard keys "+strings.Join(kv, " "))
	}
	if ns.CacheHits+ns.CacheNegHits+ns.CacheMisses > 0 || ns.CacheEntries > 0 {
		parts = append(parts, fmt.Sprintf("cache %.1f%% hit (%d hits, %d neg, %d misses, %d entries)",
			ns.CacheHitRatio*100, ns.CacheHits, ns.CacheNegHits, ns.CacheMisses, ns.CacheEntries))
	}
	if ns.BreakerState > 0 || ns.BreakerTrips > 0 {
		parts = append(parts, fmt.Sprintf("breaker state %d (%d trips, %d fast-fails)",
			ns.BreakerState, ns.BreakerTrips, ns.BreakerFastFails))
	}
	if len(parts) == 0 {
		return "idle"
	}
	return strings.Join(parts, "; ")
}

// memberSummary compresses a node's membership table into the MEMB
// column: alive/suspect/dead counts ("-" when gossip membership is
// off; a Leaving peer counts alive, a Left peer is dropped — it
// departed, it is not in trouble).
func memberSummary(st NodeStatus) string {
	if len(st.Members) == 0 {
		return "-"
	}
	var a, s, d int
	for _, m := range st.Members {
		switch m.State {
		case "alive", "leaving":
			a++
		case "suspect":
			s++
		case "dead":
			d++
		}
	}
	return fmt.Sprintf("%da/%ds/%dd", a, s, d)
}
