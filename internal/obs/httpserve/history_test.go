package httpserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
)

// TestHistoryEndpoint: /history lists the known metrics, serves windowed
// aggregates plus the per-sample series for one, 404s on never-seen
// metrics, and 400s on an unparseable window.
func TestHistoryEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()

	if code, _ := get(t, srv, "/history?metric=never_scraped_total"); code != http.StatusNotFound {
		t.Fatalf("unknown metric = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/history?metric=x&window=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad window = %d, want 400", code)
	}

	probe := obs.Default.Counter("httpserve_hist_probe_total")
	probe.Inc()
	obs.DefaultHistory.Sample(obs.Default)
	probe.Add(3)
	obs.DefaultHistory.Sample(obs.Default)

	code, body := get(t, srv, "/history")
	if code != http.StatusOK {
		t.Fatalf("GET /history = %d: %s", code, body)
	}
	var list struct {
		Metrics []string  `json:"metrics"`
		Samples int64     `json:"samples"`
		LastAt  time.Time `json:"last_at"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range list.Metrics {
		if m == "httpserve_hist_probe_total" {
			found = true
		}
	}
	if !found || list.Samples < 2 || list.LastAt.IsZero() {
		t.Fatalf("history listing = %+v, want the probe metric and >=2 samples", list)
	}

	code, body = get(t, srv, "/history?metric=httpserve_hist_probe_total&window=1h")
	if code != http.StatusOK {
		t.Fatalf("GET /history?metric = %d: %s", code, body)
	}
	var detail struct {
		Stats  obs.WindowStats   `json:"stats"`
		Points []obs.SeriesPoint `json:"points"`
	}
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Stats.Metric != "httpserve_hist_probe_total" || detail.Stats.Kind != "counter" {
		t.Fatalf("stats identity = %+v", detail.Stats)
	}
	if len(detail.Points) == 0 {
		t.Fatalf("no series points: %s", body)
	}
}

// TestAlertsEndpointAndScrapeAge: with a history-enabled pipeline running,
// /alerts reports the loaded rules and /healthz's telemetry block carries a
// real last_scrape_age_ms instead of the -1 sentinel.
func TestAlertsEndpointAndScrapeAge(t *testing.T) {
	dsn := "mem:httpserve_alerts"
	c, err := godbc.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := godbc.AddAlertRule(c, obs.AlertRule{
		Name: "never-fires", Metric: "godbc_exec_total", Op: "gt", Threshold: 1e15,
	}); err != nil {
		t.Fatal(err)
	}

	stop, err := godbc.StartTelemetry(dsn, godbc.TelemetryOptions{HistoryEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck // best-effort cleanup

	waitTelemetry(t, "last_scrape_age_ms IS NOT NULL")

	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()

	code, body := get(t, srv, "/alerts")
	if code != http.StatusOK {
		t.Fatalf("GET /alerts = %d: %s", code, body)
	}
	var alerts struct {
		Active bool              `json:"active"`
		Alerts []obs.AlertStatus `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(body), &alerts); err != nil {
		t.Fatal(err)
	}
	if !alerts.Active {
		t.Fatalf("alerts.active = false while the pipeline runs: %s", body)
	}
	var rule *obs.AlertStatus
	for i := range alerts.Alerts {
		if alerts.Alerts[i].RuleName == "never-fires" {
			rule = &alerts.Alerts[i]
		}
	}
	if rule == nil || rule.State != obs.AlertStateOK {
		t.Fatalf("/alerts = %s, want never-fires in state ok", body)
	}

	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d: %s", code, body)
	}
	var resp healthTelemetry
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Telemetry == nil {
		t.Fatalf("healthz has no telemetry block: %s", body)
	}
	if resp.Telemetry.LastScrapeAgeMS < 0 {
		t.Fatalf("last_scrape_age_ms = %d, want a real age", resp.Telemetry.LastScrapeAgeMS)
	}
	if resp.Telemetry.AlertsFiring != 0 {
		t.Fatalf("alerts_firing = %d, want 0", resp.Telemetry.AlertsFiring)
	}
}
