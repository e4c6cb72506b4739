package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
)

// cmdAlerts manages SQL-defined alert rules and their episode log:
//
//	alerts add  -db DSN -name N -metric M -threshold X   define a rule
//	alerts list -db DSN                                  show the rules
//	alerts log  -db DSN                                  show the episodes
//	alerts eval -db DSN [-settle 2s]                     evaluate once, offline
func cmdAlerts(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("alerts needs a subcommand (add, list, log, eval)")
	}
	switch args[0] {
	case "add":
		return cmdAlertsAdd(args[1:])
	case "list":
		return cmdAlertsList(args[1:])
	case "log":
		return cmdAlertsLog(args[1:])
	case "eval":
		return cmdAlertsEval(args[1:])
	}
	return fmt.Errorf("unknown alerts subcommand %q (want add, list, log or eval)", args[0])
}

func cmdAlertsAdd(args []string) error {
	fs := flag.NewFlagSet("alerts add", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	name := fs.String("name", "", "rule name")
	metric := fs.String("metric", "", "metric the rule watches (e.g. godbc_exec_total)")
	kind := fs.String("kind", obs.AlertKindThreshold, "predicate kind: threshold or anomaly")
	agg := fs.String("agg", "", "windowed aggregate to compare: rate, avg, ewma, p95, last (default: rate for counters, last for gauges)")
	op := fs.String("op", "gt", "comparison for threshold rules: gt or lt")
	threshold := fs.Float64("threshold", 0, "threshold value (threshold rules)")
	zscore := fs.Float64("zscore", 3, "standard deviations from the window mean (anomaly rules)")
	window := fs.Duration("window", obs.DefaultAlertWindow, "trailing aggregation window")
	forDur := fs.Duration("for", 0, "how long the predicate must hold before firing (0 fires immediately)")
	severity := fs.String("severity", "warn", "severity label: info, warn or critical")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openSession(*dsn)
	if err != nil {
		return err
	}
	defer s.Close()
	id, err := godbc.AddAlertRule(s.Conn(), obs.AlertRule{
		Name: *name, Metric: *metric, Kind: *kind, Agg: *agg, Op: *op,
		Threshold: *threshold, ZScore: *zscore, Window: *window, For: *forDur,
		Severity: *severity,
	})
	if err != nil {
		return err
	}
	fmt.Printf("alert rule %d (%s) created: %s %s on %s over %s\n",
		id, *name, *kind, *severity, *metric, *window)
	return nil
}

func cmdAlertsList(args []string) error {
	fs := flag.NewFlagSet("alerts list", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openSession(*dsn)
	if err != nil {
		return err
	}
	defer s.Close()
	rules, err := godbc.LoadAlertRules(s.Conn())
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tNAME\tMETRIC\tKIND\tAGG\tOP\tTHRESHOLD\tWINDOW\tFOR\tSEVERITY")
	for _, r := range rules {
		bound := fmt.Sprintf("%g", r.Threshold)
		if r.Kind == obs.AlertKindAnomaly {
			bound = fmt.Sprintf("z>%g", r.ZScore)
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.ID, r.Name, r.Metric, r.Kind, r.Agg, r.Op, bound, r.Window, r.For, r.Severity)
	}
	w.Flush()
	fmt.Printf("(%d rules)\n", len(rules))
	return nil
}

func cmdAlertsLog(args []string) error {
	fs := flag.NewFlagSet("alerts log", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openSession(*dsn)
	if err != nil {
		return err
	}
	defer s.Close()
	return runStatement(s, `SELECT alert_id, rule_name, metric, severity, state,
		value, pending_at, firing_at, resolved_at FROM OBS_ALERTS`)
}

// cmdAlertsEval runs one offline evaluation pass: it starts the telemetry
// pipeline with the history scrape enabled, lets it settle for a few
// scrapes, and reports every rule's state. A fresh (idle) process sees
// idle metrics, so episodes a crashed or finished workload left open in
// PERFDMF_ALERTS are resolved here — the offline half of the alert
// lifecycle.
func cmdAlertsEval(args []string) error {
	fs := flag.NewFlagSet("alerts eval", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	settle := fs.Duration("settle", 2*time.Second, "how long to scrape before reporting")
	every := fs.Duration("every", 100*time.Millisecond, "scrape cadence during the evaluation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dsn == "" {
		return fmt.Errorf("-db is required (e.g. file:/tmp/archive)")
	}
	stop, err := godbc.StartTelemetry(*dsn, godbc.TelemetryOptions{
		HistoryEvery: *every,
		BudgetPct:    -1, // keep the eval pass itself unsampled
	})
	if err != nil {
		return err
	}
	time.Sleep(*settle)
	// Read the states before stop: its final scrape evaluates once more.
	alerts, err := godbc.QueryCatalog(`SELECT rule_name, metric, severity, state, value FROM OBS_ALERT_STATES`)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "RULE\tMETRIC\tSEVERITY\tSTATE\tVALUE")
	firing := 0
	for _, a := range alerts {
		if a["state"] == obs.AlertStateFiring {
			firing++
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.4g\n", a["rule_name"], a["metric"], a["severity"], a["state"], a["value"])
	}
	w.Flush()
	fmt.Printf("(%d rules, %d firing)\n", len(alerts), firing)
	return nil
}
