package obs

import (
	"fmt"
	"net/http"
)

// debugQueries is how many flight records /debug/queries renders.
const debugQueries = 64

// Handler serves an observer over HTTP:
//
//	GET /metrics               Prometheus text exposition of every metric
//	GET /debug/queries         the newest debugQueries flight records,
//	                           newest first, each rendered as its EXPLAIN
//	                           tree
//	GET /debug/flightrecorder  the flight recorder's retained root-span
//	                           trees as JSONL, oldest first
//
// Mount it on any mux or serve it directly; cmd/hermesd exposes it via
// its -http flag.
func Handler(o *Observer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if o != nil {
			o.Metrics.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if o == nil {
			fmt.Fprintln(w, "tracing disabled")
			return
		}
		started, finished, _ := o.Flight.Counts()
		recent := o.Flight.Records()
		recent = recent[:min(len(recent), debugQueries)]
		fmt.Fprintf(w, "%d queries started, %d finished, %d retained\n", started, finished, len(recent))
		for i, r := range recent {
			fmt.Fprintf(w, "\n-- query %d (started at %s, took %s)\n", i+1, millis(r.Root.Start), millis(r.Root.Duration()))
			fmt.Fprint(w, Explain(r.Root))
		}
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if o == nil {
			return
		}
		o.Flight.WriteJSONL(w)
	})
	return mux
}
