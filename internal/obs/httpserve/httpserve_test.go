package httpserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
	"perfdmf/internal/sqlexec"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint is the acceptance scrape: /metrics must expose both
// engine counters (fed by real godbc statements) and runtime-collector
// gauges from one registry.
func TestMetricsEndpoint(t *testing.T) {
	c, err := godbc.Open("mem:httpserve_metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE m (id BIGINT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO m (id) VALUES (?)", 1); err != nil {
		t.Fatal(err)
	}

	col := NewCollector(nil, func() int { return 7 })
	col.CollectNow()

	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"godbc_exec_total",    // engine counter
		"go_goroutines",       // runtime gauge
		"go_heap_alloc_bytes", // runtime gauge
		"reldb_wal_ops_pending 7",
		"# TYPE godbc_exec_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, srv, "/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics.json = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics.json does not parse as a snapshot: %v", err)
	}
	if snap.Counters["godbc_exec_total"] < 2 {
		t.Errorf("snapshot godbc_exec_total = %d", snap.Counters["godbc_exec_total"])
	}
	if _, ok := snap.Gauges["go_goroutines"]; !ok {
		t.Error("snapshot missing go_goroutines gauge")
	}
}

// TestMetricsJSONQuantiles: histogram snapshots in /metrics.json carry the
// p50/p95/p99 fields, and /metrics carries quantile series.
func TestMetricsJSONQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("test_lat_ns")
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	srv := httptest.NewServer(NewHandler(Options{Registry: reg}))
	defer srv.Close()

	_, body := get(t, srv, "/metrics.json")
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	hs := snap.Histograms["test_lat_ns"]
	if hs.P50 != 4 || hs.P95 != 4 || hs.P99 != 4 {
		t.Errorf("quantiles = %d/%d/%d, want 4/4/4", hs.P50, hs.P95, hs.P99)
	}
	_, prom := get(t, srv, "/metrics")
	if !strings.Contains(prom, `test_lat_ns{quantile="0.99"} 4`) {
		t.Errorf("/metrics missing quantile series:\n%s", prom)
	}
}

func TestHealthz(t *testing.T) {
	dir := t.TempDir()
	c, err := godbc.Open("file:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hr := c.(godbc.HealthReporter)

	srv := httptest.NewServer(NewHandler(Options{Health: hr.Health}))
	defer srv.Close()

	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d: %s", code, body)
	}
	var resp HealthResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.DB == nil || !resp.DB.Open || !resp.DB.Durable || !resp.DB.WALWritable {
		t.Fatalf("healthz = %+v", resp)
	}

	// A stale checkpoint flips the probe to degraded/503.
	stale := httptest.NewServer(NewHandler(Options{
		Health: func() (godbc.Health, error) {
			h, err := hr.Health()
			h.LastCheckpoint = time.Now().Add(-time.Hour)
			return h, err
		},
		MaxCheckpointAge: time.Minute,
	}))
	defer stale.Close()
	code, body = get(t, stale, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("stale-checkpoint healthz = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "degraded" || resp.CheckpointAgeSeconds < 3000 {
		t.Fatalf("stale healthz = %+v", resp)
	}
}

func TestHealthzNoDB(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("no-DB healthz = %d: %s", code, body)
	}
}

func TestTracesAndSlowlog(t *testing.T) {
	tr := obs.NewTracer(8)
	sl := obs.NewSlowLog(8)
	for i := 1; i <= 5; i++ {
		sp := &obs.Span{ID: int64(i), Kind: "query", Statement: "SELECT 1", Total: time.Duration(i) * time.Millisecond}
		tr.Record(sp)
		if i%2 == 1 {
			sl.Record(sp)
		}
	}
	srv := httptest.NewServer(NewHandler(Options{Tracer: tr, SlowLog: sl}))
	defer srv.Close()

	code, body := get(t, srv, "/traces?n=2")
	if code != http.StatusOK {
		t.Fatalf("GET /traces = %d", code)
	}
	var spans []*obs.Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].ID != 4 || spans[1].ID != 5 {
		t.Fatalf("traces?n=2 = %s", body)
	}

	code, body = get(t, srv, "/slowlog")
	if code != http.StatusOK {
		t.Fatalf("GET /slowlog = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("slowlog = %s", body)
	}

	if code, _ := get(t, srv, "/traces?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("traces?n=bogus = %d", code)
	}
}

func TestPprofMounted(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	code, body := get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/ = %d", code)
	}
}

func TestGetOnly(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d", resp.StatusCode)
	}
}

func TestCollectorStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	col := NewCollector(reg, nil)
	col.Start(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	col.Stop()
	col.Stop() // idempotent
	if reg.Snapshot().Gauges["go_goroutines"] == 0 {
		t.Fatal("collector never sampled go_goroutines")
	}

	// Never-started collectors stop cleanly too.
	NewCollector(reg, nil).Stop()
}

// TestMetricsTelemetryDropCounter: sink backpressure drops surface on the
// /metrics scrape via obs_telemetry_dropped_total.
func TestMetricsTelemetryDropCounter(t *testing.T) {
	sink := obs.NewTelemetrySink(func([]obs.SinkEntry) error { return nil }, obs.SinkOptions{Capacity: 1})
	before := sink.Dropped()
	for i := 0; i < 3; i++ {
		sink.Offer(&obs.Span{ID: int64(i + 1), Kind: "exec"}, false)
	}
	if got := sink.Dropped() - before; got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "obs_telemetry_dropped_total") {
		t.Fatalf("/metrics (%d) missing obs_telemetry_dropped_total", code)
	}
}

// TestHealthzPlanCacheAndCheckpoint covers the two derived health fields:
// the plan-cache hit ratio computed from the registry counters, and the
// checkpoint age computed from the probe's LastCheckpoint.
func TestHealthzPlanCacheAndCheckpoint(t *testing.T) {
	reg := obs.NewRegistry()
	hits := reg.Counter("sqlexec_plan_cache_hits_total")
	misses := reg.Counter("sqlexec_plan_cache_misses_total")
	for i := 0; i < 3; i++ {
		hits.Inc()
	}
	misses.Inc()
	srv := httptest.NewServer(NewHandler(Options{
		Registry: reg,
		Health: func() (godbc.Health, error) {
			return godbc.Health{
				Open: true, Durable: true, WALWritable: true,
				LastCheckpoint: time.Now().Add(-30 * time.Second),
			}, nil
		},
	}))
	defer srv.Close()
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d: %s", code, body)
	}
	var resp HealthResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PlanCacheHitRatio != 0.75 {
		t.Errorf("plan_cache_hit_ratio = %v, want 0.75", resp.PlanCacheHitRatio)
	}
	if resp.CheckpointAgeSeconds < 29 || resp.CheckpointAgeSeconds > 120 {
		t.Errorf("checkpoint_age_seconds = %v, want ~30", resp.CheckpointAgeSeconds)
	}

	// Before any statements have run the ratio reports 0, not NaN.
	empty := httptest.NewServer(NewHandler(Options{Registry: obs.NewRegistry()}))
	defer empty.Close()
	_, body = get(t, empty, "/healthz")
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PlanCacheHitRatio != 0 {
		t.Errorf("cold plan_cache_hit_ratio = %v, want 0", resp.PlanCacheHitRatio)
	}
}

// TestStatementsEndpoint: GET /statements lists the live registry; DELETE
// /statements/<id> kills (404 for unknown ids, 405 for other methods).
func TestStatementsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()

	code, body := get(t, srv, "/statements")
	if code != http.StatusOK {
		t.Fatalf("GET /statements = %d", code)
	}
	var stmts []sqlexec.StmtInfo
	if err := json.Unmarshal([]byte(body), &stmts); err != nil {
		t.Fatalf("/statements does not parse: %v\n%s", err, body)
	}

	// A registered statement appears, and DELETE kills it.
	entry := sqlexec.Statements.Begin("SELECT 1", "query")
	defer entry.Finish()
	_, body = get(t, srv, "/statements")
	if !strings.Contains(body, `"SELECT 1"`) {
		t.Fatalf("/statements missing live statement:\n%s", body)
	}

	del := func(path string) (int, string) {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, _ := del("/statements/999999999"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown id = %d, want 404", code)
	}
	if code, _ := del("/statements/bogus"); code != http.StatusBadRequest {
		t.Errorf("DELETE bogus id = %d, want 400", code)
	}
	code, body = del(fmt.Sprintf("/statements/%d", entry.ID()))
	if code != http.StatusOK || !strings.Contains(body, `"killed"`) {
		t.Errorf("DELETE live id = %d: %s", code, body)
	}
	if entry.Err() == nil {
		t.Error("entry not cancelled after DELETE")
	}

	// Non-DELETE methods on /statements/<id> are rejected.
	resp, err := srv.Client().Post(srv.URL+"/statements/1", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /statements/1 = %d, want 405", resp.StatusCode)
	}
}

// healthTelemetry decodes a /healthz body's telemetry block.
type healthTelemetry struct {
	Telemetry *struct {
		Active              bool    `json:"active"`
		SampleRate          float64 `json:"sample_rate"`
		QueueDepth          int     `json:"telemetry_queue_depth"`
		QueueCapacity       int     `json:"telemetry_queue_capacity"`
		LastFlushAgeSeconds float64 `json:"last_flush_age_seconds"`
		LastScrapeAgeMS     int64   `json:"last_scrape_age_ms"`
		AlertsFiring        int     `json:"alerts_firing"`
	} `json:"telemetry"`
}

// TestHealthzTelemetryBlock: once StartTelemetry has run, /healthz carries
// the pipeline block — queue depth and capacity, drop and prune counters,
// the sample rate, and the age of the last flush — and keeps reporting it
// (active=false) after the pipeline stops.
func TestHealthzTelemetryBlock(t *testing.T) {
	stop, err := godbc.StartTelemetry("mem:healthz_telemetry",
		godbc.TelemetryOptions{FlushEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			stop() //nolint:errcheck // best-effort cleanup on failure paths
		}
	}()

	// Produce some telemetry and let at least one flush complete so
	// last_flush_age_seconds is a real age, not the -1 sentinel.
	c, err := godbc.Open("mem:healthz_telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE hz (n BIGINT)"); err != nil {
		t.Fatal(err)
	}
	waitTelemetry(t, "last_flush_age_sec IS NOT NULL")

	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d: %s", code, body)
	}
	var resp healthTelemetry
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	tel := resp.Telemetry
	if tel == nil {
		t.Fatalf("healthz has no telemetry block: %s", body)
	}
	if !tel.Active {
		t.Fatalf("telemetry.active = false while the pipeline runs: %+v", tel)
	}
	if tel.QueueCapacity <= 0 || tel.QueueDepth < 0 || tel.QueueDepth > tel.QueueCapacity {
		t.Fatalf("queue depth/capacity = %d/%d", tel.QueueDepth, tel.QueueCapacity)
	}
	if tel.SampleRate <= 0 || tel.SampleRate > 1 {
		t.Fatalf("sample_rate = %v, want (0, 1]", tel.SampleRate)
	}
	if tel.LastFlushAgeSeconds < 0 {
		t.Fatalf("last_flush_age_seconds = %v after a flush", tel.LastFlushAgeSeconds)
	}
	for _, want := range []string{
		"telemetry_queue_depth", "telemetry_dropped_total", "last_flush_age_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz body missing %q: %s", want, body)
		}
	}

	stopped = true
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz after stop = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Telemetry == nil || resp.Telemetry.Active {
		t.Fatalf("telemetry block after stop = %+v, want present with active=false", resp.Telemetry)
	}
}
