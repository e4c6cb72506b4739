package httpserve

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
	"perfdmf/internal/sqlexec"
)

// The endpoint golden files pin the JSON the monitoring endpoints emit, as
// the Go-struct encoders that preceded the catalog read path wrote it:
// each recorded key must keep its JSON type and value. Values that vary
// between runs (ids, ages, counters) are recorded as a type placeholder
// ("<number>", "<string>") and compared by type only; a negative number is
// a sentinel and is always kept verbatim.
// Regenerate with `go test ./internal/obs/httpserve -run Golden -update`.
var updateGolden = flag.Bool("update", false, "rewrite the endpoint golden files")

// volatileKeys hold values that change from run to run.
var volatileKeys = map[string]bool{
	"statement_id": true, "elapsed_us": true, "rule_id": true, "value": true,
	"since": true, "last_checkpoint": true, "checkpoint_age_seconds": true,
	"sample_rate": true, "write_overhead_pct": true,
	"telemetry_queue_depth": true, "telemetry_dropped_total": true,
	"telemetry_sampled_out_total": true, "telemetry_stored_total": true,
	"telemetry_store_errors_total": true, "telemetry_pruned_spans_total": true,
	"telemetry_pruned_slowlog_total": true, "last_flush_age_seconds": true,
	"last_scrape_age_ms": true,
}

// omittedWhenEmpty lists keys the recorded endpoints left out when their
// value was empty (`omitempty`): only these may appear as new keys.
var omittedWhenEmpty = map[string]bool{"episode_id": true, "error": true, "checkpoint_age_seconds": true}

// normalize replaces volatile values with their type placeholder.
func normalize(v any, key string) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = normalize(e, k)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalize(e, key)
		}
		return out
	case float64:
		if volatileKeys[key] && x >= 0 {
			return "<number>"
		}
	case string:
		if volatileKeys[key] && x != "0001-01-01T00:00:00Z" {
			return "<string>"
		}
	}
	return v
}

// jsonType names a decoded JSON value's type, reading placeholders as the
// type they stand for.
func jsonType(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case bool:
		return "bool"
	case float64:
		return "number"
	case string:
		if x == "<number>" {
			return "number"
		}
		return "string"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	}
	return fmt.Sprintf("%T", v)
}

// matchGolden reports every way got departs from want at path.
func matchGolden(path string, want, got any) []string {
	if jsonType(want) != jsonType(got) {
		return []string{fmt.Sprintf("%s: type %s, want %s (%v)", path, jsonType(got), jsonType(want), want)}
	}
	switch w := want.(type) {
	case map[string]any:
		g := got.(map[string]any)
		var diffs []string
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s.%s: missing", path, k))
				continue
			}
			diffs = append(diffs, matchGolden(path+"."+k, wv, gv)...)
		}
		for k := range g {
			if _, ok := w[k]; !ok && !omittedWhenEmpty[k] {
				diffs = append(diffs, fmt.Sprintf("%s.%s: new key", path, k))
			}
		}
		return diffs
	case []any:
		g := got.([]any)
		if len(g) != len(w) {
			return []string{fmt.Sprintf("%s: %d elements, want %d: %v", path, len(g), len(w), g)}
		}
		var diffs []string
		for i := range w {
			diffs = append(diffs, matchGolden(fmt.Sprintf("%s[%d]", path, i), w[i], g[i])...)
		}
		return diffs
	case string:
		if w == "<number>" || w == "<string>" {
			return nil
		}
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		return []string{fmt.Sprintf("%s: %v, want %v", path, got, want)}
	}
	return nil
}

// checkGolden fetches path from srv and compares it with the named golden
// file (or rewrites the file under -update).
func checkGolden(t *testing.T, srv *httptest.Server, path, name string) {
	t.Helper()
	_, body := get(t, srv, path)
	var doc any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("%s does not parse: %v\n%s", path, err, body)
	}
	got := normalize(doc, "")
	file := filepath.Join("testdata", name+".json")
	if *updateGolden {
		var out strings.Builder
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if diffs := matchGolden(path, want, got); len(diffs) > 0 {
		sort.Strings(diffs)
		t.Errorf("%s departs from %s:\n  %s\nbody: %s", path, file, strings.Join(diffs, "\n  "), body)
	}
}

// goldenServer serves the endpoints with a fresh registry (so the plan
// cache ratio is a stable 0) and an in-memory database's health probe.
func goldenServer(t *testing.T) *httptest.Server {
	t.Helper()
	c, err := godbc.Open("mem:httpserve_golden")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(NewHandler(Options{
		Registry: obs.NewRegistry(),
		Health:   c.(godbc.HealthReporter).Health,
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestEndpointGoldenNoPipeline: /healthz, /alerts and /statements before
// any telemetry pipeline has run in the process. This file sorts first in
// the package, so its tests run before any other test starts a pipeline.
func TestEndpointGoldenNoPipeline(t *testing.T) {
	if ran, err := godbc.QueryCatalog("SELECT active FROM OBS_TELEMETRY WHERE queue_capacity IS NOT NULL"); err != nil || len(ran) > 0 {
		t.Skip("a telemetry pipeline already ran in this process")
	}
	srv := goldenServer(t)
	checkGolden(t, srv, "/healthz", "healthz_no_pipeline")
	checkGolden(t, srv, "/alerts", "alerts_no_pipeline")
	checkGolden(t, srv, "/statements", "statements_empty")

	entry := sqlexec.Statements.Begin("SELECT 1", "query")
	defer entry.Finish()
	checkGolden(t, srv, "/statements", "statements_one")
}

// TestEndpointGoldenPipeline: /healthz and /alerts while a history-enabled
// telemetry pipeline with one alert rule runs, after its first flush and
// scrape.
func TestEndpointGoldenPipeline(t *testing.T) {
	dsn := "mem:httpserve_golden_pipeline"
	godbc.DropMemory(strings.TrimPrefix(dsn, "mem:")) // -count=N must start without rules
	c, err := godbc.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := godbc.AddAlertRule(c, obs.AlertRule{
		Name: "golden-rule", Metric: "godbc_exec_total", Op: "gt", Threshold: 1e15, Severity: "critical",
	}); err != nil {
		t.Fatal(err)
	}
	stop, err := godbc.StartTelemetry(dsn, godbc.TelemetryOptions{
		FlushEvery:   5 * time.Millisecond,
		HistoryEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck // best-effort cleanup
	waitTelemetry(t, "last_flush_age_sec IS NOT NULL AND last_scrape_age_ms IS NOT NULL")
	srv := goldenServer(t)
	checkGolden(t, srv, "/healthz", "healthz_pipeline")
	checkGolden(t, srv, "/alerts", "alerts_pipeline")
}

// waitTelemetry polls the OBS_TELEMETRY row until the SQL predicate cond
// holds on it.
func waitTelemetry(t *testing.T, cond string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rows, err := godbc.QueryCatalog("SELECT active FROM OBS_TELEMETRY WHERE " + cond)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("OBS_TELEMETRY never satisfied %s", cond)
		}
		time.Sleep(time.Millisecond)
	}
}
