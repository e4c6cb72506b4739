// Command perfdmf is the PerfDMF command-line tool: it loads profiles from
// any supported format into a performance archive, lists the archive tree,
// prints trial summaries, exports trials as XML, runs raw SQL, and deletes
// trials.
//
// Usage:
//
//	perfdmf load   -db DSN -app NAME -exp NAME [-format F] [-name N] PATH...
//	perfdmf list   -db DSN
//	perfdmf summary -db DSN -trial ID [-metric TIME] [-n 20]
//	perfdmf export -db DSN -trial ID -o FILE.xml
//	perfdmf sql    -db DSN "SELECT ..."
//	perfdmf delete -db DSN -trial ID
//	perfdmf compare -db DSN -a ID -b ID [-metric TIME]
//	perfdmf derive -db DSN -trial ID -name FLOPS -num PAPI_FP_OPS -den TIME
//	perfdmf regress -db DSN -trials 1,2,3 [-threshold 0.1]
//	perfdmf dump   -db DSN -o DIR            (portable archive export)
//	perfdmf restore -db DSN -from DIR
//	perfdmf serve  -db DSN [-addr HOST:PORT] [-trace] [-telemetry=false] [-history 1s]
//	perfdmf top    [-url http://127.0.0.1:7227] [-interval 2s] [-n 1] [-kill ID]
//	perfdmf alerts add -db DSN -name N -metric M -threshold X [-agg rate] [-for 30s]
//	perfdmf alerts list|log -db DSN
//	perfdmf doctor -db DSN [-json]
//	perfdmf formats
//
// DSN examples: file:/path/to/archive, mem:scratch. Connection options
// ride the DSN: file:dir?trace=1&slowms=50 for observability,
// ?workers=N to cap SELECT parallelism (0 forces serial execution; unset
// defaults to GOMAXPROCS) — e.g. perfdmf sql -db "file:archive?workers=4".
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"perfdmf/internal/core"
	"perfdmf/internal/formats"
	"perfdmf/internal/formats/xmlprof"
	"perfdmf/internal/godbc"
	"perfdmf/internal/model"
	"perfdmf/internal/obs"
	"perfdmf/internal/synth"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfdmf:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (load, list, summary, export, sql, delete, compare, derive, regress, stats, dump, restore, serve, trace, top, alerts, doctor, synth, formats)")
	}
	switch args[0] {
	case "load":
		return cmdLoad(args[1:])
	case "list":
		return cmdList(args[1:])
	case "summary":
		return cmdSummary(args[1:])
	case "export":
		return cmdExport(args[1:])
	case "sql":
		return cmdSQL(args[1:])
	case "delete":
		return cmdDelete(args[1:])
	case "compare":
		return cmdCompare(args[1:])
	case "derive":
		return cmdDerive(args[1:])
	case "regress":
		return cmdRegress(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "dump":
		return cmdDump(args[1:])
	case "restore":
		return cmdRestore(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "top":
		return cmdTop(args[1:])
	case "alerts":
		return cmdAlerts(args[1:])
	case "doctor":
		return cmdDoctor(args[1:])
	case "synth":
		return cmdSynth(args[1:])
	case "formats":
		fmt.Println(strings.Join(formats.All, "\n"))
		return nil
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func openSession(dsn string) (*core.DataSession, error) {
	if dsn == "" {
		return nil, fmt.Errorf("-db is required (e.g. file:/tmp/archive)")
	}
	return core.Open(dsn)
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	appName := fs.String("app", "", "application name")
	expName := fs.String("exp", "", "experiment name")
	format := fs.String("format", "", "profile format (default: auto-detect)")
	trialName := fs.String("name", "", "trial name (default: derived from the input)")
	ranks := fs.Bool("ranks", false, "treat PATH as a directory of per-rank files (dynaprof/hpm/psrun)")
	prefix := fs.String("prefix", "", "with -ranks: only files starting with this prefix")
	suffix := fs.String("suffix", "", "with -ranks: only files ending with this suffix")
	telemetry := fs.Bool("telemetry", false, "persist the load's span tree into the archive's PERFDMF_SPANS table (inspect with `perfdmf trace`)")
	telBudget := fs.Float64("telemetry-budget", 0, "telemetry overhead budget in percent (0 means the default; negative disables sampling)")
	telRetainRows := fs.Int("telemetry-retain-rows", 0, "cap PERFDMF_SPANS/PERFDMF_SLOWLOG at this many rows (0 = default cap, negative = uncapped)")
	telRetainAge := fs.Duration("telemetry-retain-age", 0, "prune telemetry rows older than this (0 disables age pruning)")
	historyEvery := fs.Duration("history-every", 0, "with -telemetry: scrape metrics into PERFDMF_METRICS_HISTORY and evaluate alert rules on this cadence (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ranks && *format == "" {
		return fmt.Errorf("-ranks needs an explicit -format (dynaprof, hpm or psrun)")
	}
	if *appName == "" || *expName == "" {
		return fmt.Errorf("load needs -app and -exp")
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("load needs at least one profile path")
	}
	s, err := openSession(*dsn)
	if err != nil {
		return err
	}
	defer s.Close()

	var stopTel func() error
	if *telemetry {
		stopTel, err = godbc.StartTelemetry(*dsn, godbc.TelemetryOptions{
			BudgetPct:    *telBudget,
			RetainRows:   *telRetainRows,
			RetainAge:    *telRetainAge,
			HistoryEvery: *historyEvery,
		})
		if err != nil {
			return err
		}
		// Runs before s.Close (LIFO), flushing the tail of the sink into
		// PERFDMF_SPANS while the engine is still open. The happy path
		// stops explicitly below (and prints a summary); this only covers
		// early error returns.
		defer func() {
			if stopTel != nil {
				stopTel() //nolint:errcheck // telemetry flush is best-effort
			}
		}()
	}

	app, err := s.FindApplication(*appName)
	if err != nil {
		return err
	}
	if app == nil {
		app = &core.Application{Name: *appName}
		if err := s.SaveApplication(app); err != nil {
			return err
		}
	}
	s.SetApplication(app)
	exps, err := s.ExperimentList()
	if err != nil {
		return err
	}
	var exp *core.Experiment
	for _, e := range exps {
		if e.Name == *expName {
			exp = e
		}
	}
	if exp == nil {
		exp = &core.Experiment{Name: *expName}
		if err := s.SaveExperiment(exp); err != nil {
			return err
		}
	}
	s.SetExperiment(exp)

	for _, path := range paths {
		// One root span per input: parse and upload (and every statement
		// they issue) hang off it, so each load renders as a single tree.
		label := *trialName
		if label == "" {
			label = filepath.Base(path)
		}
		ctx, sp := obs.StartSpan(context.Background(), "load", "load:"+label)
		trial, profile, err := loadOne(ctx, s, path, *format, *trialName, *ranks, *prefix, *suffix)
		sp.Finish(err)
		if err != nil {
			return err
		}
		fmt.Printf("loaded trial %d (%s) — %s\n", trial.ID, trial.Name, synth.Describe(profile))
	}
	if stopTel != nil {
		stop := stopTel
		stopTel = nil
		if err := stop(); err != nil {
			return err
		}
		// The pipeline has drained: report what it kept, shed, and pruned
		// so scripted callers (make telemetry-smoke) can assert on it.
		tel, err := godbc.QueryCatalog(`SELECT stored, sampled_out, dropped, pruned_spans, pruned_slowlog,
			sample_rate, history_enabled, alert_rules, alerts_pending, alerts_firing FROM OBS_TELEMETRY`)
		if err != nil {
			return err
		}
		t := tel[0]
		fmt.Printf("telemetry: stored=%d sampled_out=%d dropped=%d pruned_spans=%d pruned_slowlog=%d sample_rate=%.3f\n",
			t["stored"], t["sampled_out"], t["dropped"], t["pruned_spans"], t["pruned_slowlog"], t["sample_rate"])
		if t["history_enabled"] == true {
			fmt.Printf("history: samples=%d rules=%d pending=%d firing=%d\n",
				obs.DefaultHistory.TotalSamples(), t["alert_rules"], t["alerts_pending"], t["alerts_firing"])
		}
	}
	return nil
}

func loadOne(ctx context.Context, s *core.DataSession, path, format, trialName string, ranks bool, prefix, suffix string) (*core.Trial, *model.Profile, error) {
	var profile *model.Profile
	var err error
	if ranks {
		files, scanErr := formats.ScanDir(path, prefix, suffix)
		if scanErr != nil {
			return nil, nil, scanErr
		}
		profile, err = formats.LoadMultiRankCtx(ctx, format, files)
	} else {
		profile, err = loadProfile(ctx, format, path)
	}
	if err != nil {
		return nil, nil, err
	}
	trial, err := s.UploadTrialCtx(ctx, profile, core.UploadOptions{TrialName: trialName})
	if err != nil {
		return nil, nil, err
	}
	return trial, profile, nil
}

func loadProfile(ctx context.Context, format, path string) (*model.Profile, error) {
	if format == "" {
		return formats.LoadAutoCtx(ctx, path)
	}
	return formats.LoadCtx(ctx, format, path)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openSession(*dsn)
	if err != nil {
		return err
	}
	defer s.Close()
	return printTree(s, os.Stdout)
}

func cmdSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	trialID := fs.Int64("trial", 0, "trial id")
	metric := fs.String("metric", "TIME", "metric name")
	n := fs.Int("n", 20, "events to show")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openSession(*dsn)
	if err != nil {
		return err
	}
	defer s.Close()
	s.SetTrial(&core.Trial{ID: *trialID})
	rows, err := s.MeanSummary(*metric)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("trial %d has no %s summary", *trialID, *metric)
	}
	if *n < len(rows) {
		rows = rows[:*n]
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "EXCL%%\tEXCLUSIVE\tINCLUSIVE\tCALLS\tGROUP\tNAME\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%.1f\t%.4g\t%.4g\t%.0f\t%s\t%s\n",
			r.ExclPct, r.Exclusive, r.Inclusive, r.Calls, r.Group, r.EventName)
	}
	return w.Flush()
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	trialID := fs.Int64("trial", 0, "trial id")
	out := fs.String("o", "", "output XML file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("export needs -o")
	}
	s, err := openSession(*dsn)
	if err != nil {
		return err
	}
	defer s.Close()
	p, err := s.LoadTrial(*trialID)
	if err != nil {
		return err
	}
	if err := xmlprof.Write(*out, p); err != nil {
		return err
	}
	fmt.Printf("exported trial %d to %s — %s\n", *trialID, *out, synth.Describe(p))
	return nil
}

// cmdSQL runs one statement given as an argument, or — with no argument —
// acts as a shell reading semicolon-terminated statements from stdin.
func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openSession(*dsn)
	if err != nil {
		return err
	}
	defer s.Close()
	switch fs.NArg() {
	case 1:
		return runStatement(s, fs.Arg(0))
	case 0:
		return sqlShell(s, os.Stdin)
	}
	return fmt.Errorf("sql takes at most one query argument")
}

// sqlShell reads semicolon-terminated statements from r, executing each;
// statement errors are printed and the shell continues.
func sqlShell(s *core.DataSession, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var buf strings.Builder
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.HasSuffix(strings.TrimSpace(line), ";") {
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		stmt = strings.TrimSuffix(stmt, ";")
		if strings.TrimSpace(stmt) == "" {
			continue
		}
		if err := runStatement(s, stmt); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
	if rest := strings.TrimSpace(buf.String()); rest != "" {
		if err := runStatement(s, rest); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
	return sc.Err()
}

func runStatement(s *core.DataSession, query string) error {
	if isQuery(query) {
		rows, err := s.Conn().Query(query)
		if err != nil {
			return err
		}
		defer rows.Close()
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, strings.Join(rows.Columns(), "\t"))
		count := 0
		for rows.Next() {
			vals := make([]string, len(rows.Columns()))
			for i := range vals {
				vals[i] = fmt.Sprint(rows.Value(i))
			}
			fmt.Fprintln(w, strings.Join(vals, "\t"))
			count++
		}
		w.Flush()
		fmt.Printf("(%d rows)\n", count)
		return rows.Err()
	}
	res, err := s.Conn().Exec(query)
	if err != nil {
		return err
	}
	fmt.Printf("ok (%d rows affected)\n", res.RowsAffected)
	return nil
}

func isQuery(q string) bool {
	upper := strings.ToUpper(strings.TrimSpace(q))
	return strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "EXPLAIN")
}

func cmdDelete(args []string) error {
	fs := flag.NewFlagSet("delete", flag.ContinueOnError)
	dsn := fs.String("db", "", "database DSN")
	trialID := fs.Int64("trial", 0, "trial id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openSession(*dsn)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.DeleteTrial(*trialID); err != nil {
		return err
	}
	fmt.Printf("deleted trial %d\n", *trialID)
	return nil
}

// printTree renders the application → experiment → trial hierarchy, the
// text equivalent of ParaProf's archive tree (paper Figure 2).
func printTree(s *core.DataSession, w *os.File) error {
	apps, err := s.ApplicationList()
	if err != nil {
		return err
	}
	if len(apps) == 0 {
		fmt.Fprintln(w, "(empty archive)")
		return nil
	}
	for _, app := range apps {
		fmt.Fprintf(w, "%s (application %d)\n", app.Name, app.ID)
		s.SetApplication(app)
		exps, err := s.ExperimentList()
		if err != nil {
			return err
		}
		for _, exp := range exps {
			fmt.Fprintf(w, "  %s (experiment %d)\n", exp.Name, exp.ID)
			s.SetExperiment(exp)
			trials, err := s.TrialList()
			if err != nil {
				return err
			}
			for _, trial := range trials {
				fmt.Fprintf(w, "    %s (trial %d, %d nodes)\n",
					trial.Name, trial.ID, trial.NodeCount())
			}
		}
	}
	return nil
}
