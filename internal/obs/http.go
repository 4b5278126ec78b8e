package obs

import (
	"fmt"
	"net/http"
)

// Handler serves an observer over HTTP:
//
//	GET /metrics               Prometheus text exposition of every metric
//	GET /debug/queries         the recent-query span ring buffer, newest
//	                           first, each query rendered as its EXPLAIN
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
		started, finished := o.Tracer.Counts()
		recent := o.Tracer.Recent()
		fmt.Fprintf(w, "%d queries started, %d finished, %d retained\n", started, finished, len(recent))
		for i, d := range recent {
			fmt.Fprintf(w, "\n-- query %d (started at %s, took %s)\n", i+1, millis(d.Start), millis(d.Duration()))
			fmt.Fprint(w, Explain(d))
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
