// Package httpserve is the HTTP face of PerfDMF's observability layer — the
// engine behind `perfdmf serve`. It exposes the obs registry in Prometheus
// text and JSON form, a liveness/durability health probe, the recent trace
// and slow-query rings, and net/http/pprof, all over plain net/http. Live
// engine state — running statements, the telemetry pipeline, alert states —
// is read only as SQL over the OBS_* catalog (godbc.QueryCatalog), and
// every such result renders the same way: rows as JSON objects keyed by
// column name.
//
// The package sits above godbc (for the health probe and the catalog) and
// obs; nothing in the engine stack imports it.
package httpserve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
)

// Options configures a monitoring handler. Zero values fall back to the
// process-wide obs globals, so Options{} serves the default registry.
type Options struct {
	// Registry backs /metrics and /metrics.json. Default: obs.Default.
	Registry *obs.Registry
	// Tracer backs /traces. Default: obs.DefaultTracer.
	Tracer *obs.Tracer
	// SlowLog backs /slowlog. Default: obs.DefaultSlowLog.
	SlowLog *obs.SlowLog
	// Health probes the served database for /healthz. When nil, /healthz
	// only reports process liveness.
	Health func() (godbc.Health, error)
	// MaxCheckpointAge marks a durable database degraded when its last
	// checkpoint is older than this. Zero disables the age check.
	MaxCheckpointAge time.Duration
}

func (o *Options) fill() {
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	if o.Tracer == nil {
		o.Tracer = obs.DefaultTracer
	}
	if o.SlowLog == nil {
		o.SlowLog = obs.DefaultSlowLog
	}
}

// HealthResponse is the /healthz body. Status is "ok" (HTTP 200) or
// "degraded" (HTTP 503). PlanCacheHitRatio is hits/(hits+misses) over the
// registry's plan-cache counters, 0 before any statement has run.
// Telemetry is the telemetryQuery row, present once a telemetry pipeline
// has run in this process.
type HealthResponse struct {
	Status               string         `json:"status"`
	Error                string         `json:"error,omitempty"`
	DB                   *godbc.Health  `json:"db,omitempty"`
	CheckpointAgeSeconds float64        `json:"checkpoint_age_seconds,omitempty"`
	PlanCacheHitRatio    float64        `json:"plan_cache_hit_ratio"`
	Telemetry            map[string]any `json:"telemetry,omitempty"`
}

// The catalog queries behind the JSON endpoints. Live engine state is read
// only through the OBS_* catalog; the aliases and COALESCE defaults keep
// the endpoints' keys and -1 "never" sentinels.
const (
	// statementsQuery is /statements. Monitoring reads are quiet, so the
	// query does not list itself.
	statementsQuery = `SELECT * FROM OBS_ACTIVE_STATEMENTS`

	// telemetryQuery is /healthz's telemetry block: is the pipeline keeping
	// up (queue depth vs capacity, drops), shedding load (sample rate), and
	// is data still flowing (flush and scrape ages). It has no row until a
	// pipeline has run: the catalog row's state is NULL until then.
	telemetryQuery = `SELECT active, sample_rate, budget_pct, write_overhead_pct,
		queue_depth AS telemetry_queue_depth, queue_capacity AS telemetry_queue_capacity,
		dropped AS telemetry_dropped_total, sampled_out AS telemetry_sampled_out_total,
		stored AS telemetry_stored_total, store_errors AS telemetry_store_errors_total,
		pruned_spans AS telemetry_pruned_spans_total, pruned_slowlog AS telemetry_pruned_slowlog_total,
		COALESCE(last_flush_age_sec, -1) AS last_flush_age_seconds,
		COALESCE(last_scrape_age_ms, -1) AS last_scrape_age_ms, alerts_firing
		FROM OBS_TELEMETRY WHERE queue_capacity IS NOT NULL`

	// alertsActiveQuery is /alerts' active flag: has a history-enabled
	// pipeline run in this process.
	alertsActiveQuery = `SELECT COALESCE(history_enabled, FALSE) AS active FROM OBS_TELEMETRY`

	// alertsQuery is /alerts' rule list. An ok rule's NULL since renders
	// as Go's zero time, the value /alerts clients decode into time.Time.
	alertsQuery = `SELECT rule_id, rule_name, metric, severity, state,
		COALESCE(since, '0001-01-01T00:00:00Z') AS since, value, episode_id FROM OBS_ALERT_STATES`
)

// statements serves /statements: the running statements, as a JSON array
// of objects keyed by column name.
func statements(w http.ResponseWriter, r *http.Request) {
	rows, err := godbc.QueryCatalog(statementsQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, rows)
}

// alerts serves /alerts: whether alert evaluation is active, and every
// rule's live state.
func alerts(w http.ResponseWriter, r *http.Request) {
	active, err := godbc.QueryCatalog(alertsActiveQuery)
	rules, rerr := godbc.QueryCatalog(alertsQuery)
	if err = errors.Join(err, rerr); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"active": active[0]["active"], "alerts": rules})
}

// NewHandler builds the monitoring mux:
//
//	GET /metrics        Prometheus text exposition of the registry
//	GET /metrics.json   registry snapshot as JSON (BENCH_obs.json shape)
//	GET /healthz        process + database health, 200/503
//	GET /traces?n=50    most recent traced spans, oldest first
//	GET /traces?tree=1  the same spans assembled into causal span trees
//	GET /slowlog?n=50   most recent slow queries, oldest first
//	GET /history        metric names the history ring has seen
//	GET /history?metric=m&window=30s  windowed aggregates + series
//	GET /alerts         live alert rule states
//	    /debug/pprof/   net/http/pprof profiles
func NewHandler(o Options) http.Handler {
	o.fill()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", getOnly(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Registry.WritePrometheus(w) //nolint:errcheck // client went away
	}))
	mux.HandleFunc("/metrics.json", getOnly(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, o.Registry.Snapshot())
	}))
	mux.HandleFunc("/healthz", getOnly(func(w http.ResponseWriter, r *http.Request) {
		resp, code := o.health()
		writeJSON(w, code, resp)
	}))
	mux.HandleFunc("/traces", getOnly(func(w http.ResponseWriter, r *http.Request) {
		writeSpans(w, r, o.Tracer.Recent())
	}))
	mux.HandleFunc("/slowlog", getOnly(func(w http.ResponseWriter, r *http.Request) {
		writeSpans(w, r, o.SlowLog.Recent())
	}))
	mux.HandleFunc("/statements", getOnly(statements))
	mux.HandleFunc("/history", getOnly(metricHistory))
	mux.HandleFunc("/alerts", getOnly(alerts))
	mux.HandleFunc("/statements/", statementByID)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (o *Options) health() (HealthResponse, int) {
	resp := HealthResponse{Status: "ok", PlanCacheHitRatio: planCacheHitRatio(o.Registry)}
	tel, err := godbc.QueryCatalog(telemetryQuery)
	if err != nil {
		resp.Status, resp.Error = "degraded", err.Error()
		return resp, http.StatusServiceUnavailable
	}
	if len(tel) > 0 {
		resp.Telemetry = tel[0]
	}
	if o.Health == nil {
		return resp, http.StatusOK
	}
	h, err := o.Health()
	if err != nil {
		resp.Status = "degraded"
		resp.Error = err.Error()
		return resp, http.StatusServiceUnavailable
	}
	resp.DB = &h
	code := http.StatusOK
	if !h.OK() {
		resp.Status = "degraded"
		if h.WALError != "" {
			resp.Error = h.WALError
		}
		code = http.StatusServiceUnavailable
	}
	if !h.LastCheckpoint.IsZero() {
		age := time.Since(h.LastCheckpoint)
		resp.CheckpointAgeSeconds = age.Seconds()
		if o.MaxCheckpointAge > 0 && h.Durable && age > o.MaxCheckpointAge {
			resp.Status = "degraded"
			resp.Error = "last checkpoint older than " + o.MaxCheckpointAge.String()
			code = http.StatusServiceUnavailable
		}
	}
	return resp, code
}

// planCacheHitRatio computes hits/(hits+misses) from the registry's
// sqlexec plan-cache counters; 0 when no statements have run yet.
func planCacheHitRatio(reg *obs.Registry) float64 {
	hits := reg.Counter("sqlexec_plan_cache_hits_total").Value()
	misses := reg.Counter("sqlexec_plan_cache_misses_total").Value()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// metricHistory serves the metric history ring. Without ?metric it lists
// the known metric names; with one it returns the windowed aggregates and
// the per-sample series (?window=30s, default one minute).
func metricHistory(w http.ResponseWriter, r *http.Request) {
	h := obs.DefaultHistory
	metric := r.URL.Query().Get("metric")
	if metric == "" {
		writeJSON(w, http.StatusOK, map[string]any{
			"metrics": h.Metrics(),
			"samples": h.TotalSamples(),
			"last_at": h.LastAt(),
		})
		return
	}
	window := obs.DefaultAlertWindow
	if v := r.URL.Query().Get("window"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil || parsed <= 0 {
			http.Error(w, "window must be a positive duration (e.g. 30s)", http.StatusBadRequest)
			return
		}
		window = parsed
	}
	kind, pts, known := h.Series(metric, window)
	if !known {
		http.Error(w, "no history for metric "+metric, http.StatusNotFound)
		return
	}
	if pts == nil {
		pts = []obs.SeriesPoint{}
	}
	stats, _ := h.Window(metric, window)
	stats.Metric, stats.Kind = metric, kind
	writeJSON(w, http.StatusOK, map[string]any{"stats": stats, "points": pts})
}

// statementByID handles DELETE /statements/<id>: the admin kill switch,
// equivalent to `KILL <id>` in SQL.
func statementByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		w.Header().Set("Allow", "DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	idText := strings.TrimPrefix(r.URL.Path, "/statements/")
	id, err := strconv.ParseInt(idText, 10, 64)
	if err != nil {
		http.Error(w, "statement id must be an integer", http.StatusBadRequest)
		return
	}
	if !godbc.KillStatement(id) {
		http.Error(w, "no active statement "+idText, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"killed": id})
}

// writeSpans renders the last n spans of ring (oldest first). n defaults
// to 50 and is capped by the ring size. With ?tree=1 the selected spans
// are assembled into causal trees (obs.BuildTrees): roots ordered by span
// ID, each node carrying its children and self time. Spans whose parent
// has already been evicted from the ring render as roots.
func writeSpans(w http.ResponseWriter, r *http.Request, ring []*obs.Span) {
	n := 50
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
			return
		}
		n = parsed
	}
	if n > len(ring) {
		n = len(ring)
	}
	spans := ring[len(ring)-n:]
	if v := r.URL.Query().Get("tree"); v == "1" || v == "true" {
		trees := obs.BuildTrees(spans)
		if trees == nil {
			trees = []*obs.TreeNode{}
		}
		writeJSON(w, http.StatusOK, trees)
		return
	}
	if spans == nil {
		spans = []*obs.Span{}
	}
	writeJSON(w, http.StatusOK, spans)
}

func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}
