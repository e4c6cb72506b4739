package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
	"perfdmf/internal/obs/httpserve"
)

// serveConfig is cmdServe's parsed flag set, factored out so tests can start
// a real server on an ephemeral port without going through os.Args.
type serveConfig struct {
	dsn        string
	addr       string
	interval   time.Duration // runtime-collector sampling interval
	telemetry  bool          // persist spans into PERFDMF_SPANS / PERFDMF_SLOWLOG
	flush      time.Duration // how often the telemetry writer pulls buffered spans
	telBudget  float64       // telemetry overhead budget pct (0 = default)
	retainAge  time.Duration // prune telemetry rows older than this (0 = off)
	retainRows int           // telemetry table row cap (0 = default, <0 = off)
	history    time.Duration // metric-history scrape + alert-eval cadence (0 = off)
	trace      bool          // enable global statement tracing
	slowMS     int           // slow-query threshold in milliseconds (0 = leave global)
	maxChkAge  time.Duration // /healthz degrades past this checkpoint age (0 = off)
	out        io.Writer     // status output; defaults to os.Stdout
}

// serveInstance is a running monitoring daemon. Close unwinds everything the
// start set up: HTTP listener, collector, telemetry sink, global obs config,
// and the archive connection.
type serveInstance struct {
	Addr string // actual listen address (host:port), after ephemeral resolution

	srv     *http.Server
	ln      net.Listener
	col     *httpserve.Collector
	stopTel func() error
	conn    godbc.Conn
	prev    obs.Config
}

// startServe opens the archive, applies the observability config, starts the
// telemetry sink and runtime collector, and begins serving the monitoring
// endpoints. It returns once the listener is bound.
func startServe(cfg serveConfig) (*serveInstance, error) {
	if cfg.dsn == "" {
		return nil, fmt.Errorf("-db is required (e.g. file:/tmp/archive)")
	}
	if cfg.out == nil {
		cfg.out = os.Stdout
	}

	si := &serveInstance{prev: obs.Config{Trace: obs.TracingEnabled(), SlowQuery: obs.SlowQueryThreshold()}}
	if cfg.trace {
		obs.SetTracing(true)
	}
	if cfg.slowMS > 0 {
		obs.SetSlowQueryThreshold(time.Duration(cfg.slowMS) * time.Millisecond)
	}

	// The daemon holds its own connection: it keeps a file: engine open for
	// the process lifetime and backs the /healthz probe.
	conn, err := godbc.Open(cfg.dsn)
	if err != nil {
		obs.Apply(si.prev)
		return nil, err
	}
	si.conn = conn

	if cfg.telemetry {
		stop, err := godbc.StartTelemetry(cfg.dsn, godbc.TelemetryOptions{
			FlushEvery:   cfg.flush,
			BudgetPct:    cfg.telBudget,
			RetainAge:    cfg.retainAge,
			RetainRows:   cfg.retainRows,
			HistoryEvery: cfg.history,
		})
		if err != nil {
			conn.Close()
			obs.Apply(si.prev)
			return nil, err
		}
		si.stopTel = stop
	}

	var health func() (godbc.Health, error)
	var backlog func() int
	if hr, ok := conn.(godbc.HealthReporter); ok {
		health = hr.Health
		backlog = func() int {
			h, err := hr.Health()
			if err != nil {
				return 0
			}
			return h.WALOpsPending
		}
	}

	si.col = httpserve.NewCollector(obs.Default, backlog)
	si.col.Start(cfg.interval)

	handler := httpserve.NewHandler(httpserve.Options{
		Health:           health,
		MaxCheckpointAge: cfg.maxChkAge,
	})

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		si.teardown()
		return nil, err
	}
	si.ln = ln
	si.Addr = ln.Addr().String()
	si.srv = &http.Server{Handler: handler}
	//lint:allow lifecycle -- http.Server owns this goroutine: Serve returns when Stop calls srv.Close
	go si.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	return si, nil
}

// teardown unwinds everything except the HTTP server (which may not exist
// yet when startServe fails mid-way).
func (si *serveInstance) teardown() error {
	var first error
	if si.col != nil {
		si.col.Stop()
	}
	if si.stopTel != nil {
		if err := si.stopTel(); err != nil && first == nil {
			first = err
		}
		si.stopTel = nil
	}
	if si.conn != nil {
		if err := si.conn.Close(); err != nil && first == nil {
			first = err
		}
		si.conn = nil
	}
	obs.Apply(si.prev)
	return first
}

// Close shuts the daemon down: stops accepting requests, flushes the
// telemetry tail, restores the prior global obs configuration, and closes
// the archive connection.
func (si *serveInstance) Close() error {
	var first error
	if si.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := si.srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		si.srv = nil
	}
	if err := si.teardown(); err != nil && first == nil {
		first = err
	}
	return first
}

// cmdServe runs the monitoring daemon until SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	addr := fs.String("addr", "127.0.0.1:7227", "listen address (host:port, port 0 for ephemeral)")
	interval := fs.Duration("interval", 5*time.Second, "runtime collector sampling interval")
	telemetry := fs.Bool("telemetry", true, "persist spans and slow queries into PERFDMF_SPANS/PERFDMF_SLOWLOG")
	flush := fs.Duration("flush", time.Second, "how often the telemetry writer pulls buffered spans")
	telBudget := fs.Float64("telemetry-budget", 0, "telemetry overhead budget in percent (0 means the default; negative disables sampling)")
	retainAge := fs.Duration("telemetry-retain-age", 0, "prune telemetry rows older than this (0 disables age pruning)")
	retainRows := fs.Int("telemetry-retain-rows", 0, "cap telemetry tables at this many rows (0 = default cap, negative = uncapped)")
	history := fs.Duration("history", time.Second, "metric-history scrape and alert-evaluation cadence (0 disables; needs -telemetry)")
	trace := fs.Bool("trace", false, "enable statement tracing while serving")
	slowMS := fs.Int("slowms", 0, "slow-query threshold in milliseconds (0 keeps the global setting)")
	maxChkAge := fs.Duration("max-checkpoint-age", 0, "report degraded when the last checkpoint is older than this (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	si, err := startServe(serveConfig{
		dsn:        *dsn,
		addr:       *addr,
		interval:   *interval,
		telemetry:  *telemetry,
		flush:      *flush,
		telBudget:  *telBudget,
		retainAge:  *retainAge,
		retainRows: *retainRows,
		history:    *history,
		trace:      *trace,
		slowMS:     *slowMS,
		maxChkAge:  *maxChkAge,
	})
	if err != nil {
		return err
	}
	fmt.Printf("perfdmf: serving on http://%s (db %s)\n", si.Addr, *dsn)
	fmt.Printf("perfdmf: endpoints: /metrics /metrics.json /healthz /statements /traces /slowlog /history /alerts /debug/pprof/\n")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	<-sig
	fmt.Println("perfdmf: shutting down")
	return si.Close()
}
