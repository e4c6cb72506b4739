package httpserve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
)

// TestMonitoringReadsAreQuiet: the JSON endpoints read the catalog without
// showing up in it. 100 rounds of /healthz, /statements and /alerts, four
// clients at a time and with tracing on, move no godbc statement or
// plan-cache counter, emit no span, and leave OBS_PLAN_CACHE with the
// connections it started with. Under -race this also checks that
// concurrent requests never share a connection unguarded.
func TestMonitoringReadsAreQuiet(t *testing.T) {
	prev := obs.TracingEnabled()
	obs.SetTracing(true)
	defer obs.SetTracing(prev)

	counters := []string{"godbc_query_total", "godbc_exec_total", "godbc_prepare_total",
		"godbc_conns_opened_total", "godbc_statement_errors_total",
		"sqlexec_plan_cache_hits_total", "sqlexec_plan_cache_misses_total", "sqlexec_stmt_started_total"}
	read := func() map[string]int64 {
		m := map[string]int64{"spans": obs.DefaultTracer.Total()}
		for _, name := range counters {
			m[name] = obs.Default.Counter(name).Value()
		}
		return m
	}
	planCacheRows := func() int {
		rows, err := godbc.QueryCatalog("SELECT conn_id FROM OBS_PLAN_CACHE")
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}

	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	conns := planCacheRows()
	before := read()

	const rounds, clients = 100, 4
	var wg sync.WaitGroup
	errs := make(chan string, rounds*3)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < rounds; i += clients {
				for _, path := range []string{"/healthz", "/statements", "/alerts"} {
					resp, err := srv.Client().Get(srv.URL + path)
					if err != nil {
						errs <- err.Error()
						continue
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- path + ": " + resp.Status
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	after := read()
	for name, v := range before {
		if after[name] != v {
			t.Errorf("%s moved from %d to %d across monitoring reads", name, v, after[name])
		}
	}
	if n := planCacheRows(); n != conns {
		t.Errorf("OBS_PLAN_CACHE rows = %d after monitoring reads, want %d", n, conns)
	}
}
