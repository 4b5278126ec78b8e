package main

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/obs"
	"hermes/internal/remote"
)

// The /debug/cluster rollup: this node fans an OpDebug request out to every
// mount (bounded concurrency, per-peer timeout), each peer answers with its
// own nodeInfo, and the handler merges peer metrics snapshots, cache
// savings ledgers, and flight-recorder slow-query summaries into one view.
// A dead peer, or one that does not serve debug (it answers `unknown
// op`), is marked degraded, never fatal: the
// rollup always answers HTTP 200 with whatever the cluster could report.

// clusterFanout bounds how many peers are polled concurrently.
const clusterFanout = 8

// slowQueryCount is how many slow queries each node contributes.
const slowQueryCount = 5

// nodeInfo is one node's contribution to the cluster rollup — what
// Server.SetDebugInfo serves to peers and what the handler reports for the
// local node itself.
type nodeInfo struct {
	Node    string             `json:"node"`
	Metrics map[string]float64 `json:"metrics"`
	Savings cim.LedgerSnapshot `json:"savings"`
	Flight  flightSummary      `json:"flight"`
}

// flightSummary is a node's flight-recorder digest: publication counts and
// its slowest retained queries.
type flightSummary struct {
	Recorded int64       `json:"recorded"`
	Skipped  int64       `json:"skipped"`
	Slowest  []slowQuery `json:"slowest,omitempty"`
}

type slowQuery struct {
	Node       string  `json:"node,omitempty"`
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

// peerReport wraps one mount's fetched contribution. Degraded entries keep
// their error text so the operator sees *why* a node is missing from the
// merged numbers.
type peerReport struct {
	Mount    string          `json:"mount"`
	Addr     string          `json:"addr"`
	Degraded bool            `json:"degraded"`
	Err      string          `json:"err,omitempty"`
	Info     json.RawMessage `json:"info,omitempty"`
}

// clusterView is the full /debug/cluster payload.
type clusterView struct {
	Node   string        `json:"node"`
	Self   nodeInfo      `json:"self"`
	Peers  []peerReport  `json:"peers"`
	Merged clusterMerged `json:"merged"`
}

// clusterMerged aggregates headline numbers across the local node and every
// healthy peer, deduplicated by reported node name (two mounts of the same
// upstream count once).
type clusterMerged struct {
	Nodes         int         `json:"nodes"`
	DegradedPeers int         `json:"degraded_peers"`
	Queries       float64     `json:"queries_total"`
	RemoteCalls   float64     `json:"remote_calls_total"`
	SavedMS       float64     `json:"cache_saved_ms_total"`
	Slowest       []slowQuery `json:"slowest,omitempty"`
}

// selfInfo assembles this node's rollup contribution.
func selfInfo(node string, o *obs.Observer, sys *core.System) nodeInfo {
	info := nodeInfo{
		Node:    node,
		Metrics: o.Metrics.Snapshot(),
	}
	if sys != nil && sys.CIM != nil {
		info.Savings = sys.CIM.Ledger()
	}
	if o.Flight != nil {
		_, info.Flight.Recorded, info.Flight.Skipped = o.Flight.Counts()
		records := o.Flight.Records()
		sort.Slice(records, func(i, j int) bool { return records[i].DurationMS > records[j].DurationMS })
		for _, r := range records {
			if len(info.Flight.Slowest) == slowQueryCount {
				break
			}
			info.Flight.Slowest = append(info.Flight.Slowest, slowQuery{
				Node: node, Name: r.Name, DurationMS: r.DurationMS,
			})
		}
	}
	return info
}

// selfInfoJSON is the remote.Server debug-info producer: the payload this
// node serves to peers building their own cluster views.
func selfInfoJSON(node string, o *obs.Observer, sys *core.System) ([]byte, error) {
	return json.Marshal(selfInfo(node, o, sys))
}

// clusterHandler serves /debug/cluster: poll every mount with bounded
// concurrency and a per-peer timeout, then merge. Always HTTP 200 —
// degraded peers are data, not failures.
func clusterHandler(node string, o *obs.Observer, sys *core.System, mounts []*remote.Client, timeout time.Duration) http.HandlerFunc {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return func(w http.ResponseWriter, r *http.Request) {
		peers := make([]peerReport, len(mounts))
		sem := make(chan struct{}, clusterFanout)
		var wg sync.WaitGroup
		for i, m := range mounts {
			wg.Add(1)
			go func(i int, m *remote.Client) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				rep := peerReport{Mount: m.Name(), Addr: m.Addr()}
				payload, err := m.DebugSnapshot(timeout)
				if err != nil {
					rep.Degraded = true
					rep.Err = err.Error()
				} else {
					rep.Info = payload
				}
				peers[i] = rep
			}(i, m)
		}
		wg.Wait()

		view := clusterView{Node: node, Self: selfInfo(node, o, sys), Peers: peers}
		view.Merged = mergeCluster(view.Self, peers)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(view)
	}
}

// mergeCluster folds the local node and every healthy peer into the
// headline numbers, deduplicating by node name.
func mergeCluster(self nodeInfo, peers []peerReport) clusterMerged {
	merged := clusterMerged{}
	seen := map[string]bool{}
	fold := func(info nodeInfo) {
		if info.Node == "" || seen[info.Node] {
			return
		}
		seen[info.Node] = true
		merged.Nodes++
		merged.Queries += info.Metrics["hermes_queries_total"]
		for k, v := range info.Metrics {
			if strings.HasPrefix(k, "hermes_remote_calls_total") {
				merged.RemoteCalls += v
			}
		}
		merged.SavedMS += info.Metrics["hermes_cim_saved_ms_total"] + info.Metrics["hermes_memo_saved_ms_total"]
		merged.Slowest = append(merged.Slowest, info.Flight.Slowest...)
	}
	fold(self)
	for _, p := range peers {
		if p.Degraded {
			merged.DegradedPeers++
			continue
		}
		var info nodeInfo
		if err := json.Unmarshal(p.Info, &info); err != nil {
			merged.DegradedPeers++
			continue
		}
		fold(info)
	}
	sort.Slice(merged.Slowest, func(i, j int) bool { return merged.Slowest[i].DurationMS > merged.Slowest[j].DurationMS })
	if len(merged.Slowest) > slowQueryCount {
		merged.Slowest = merged.Slowest[:slowQueryCount]
	}
	return merged
}
