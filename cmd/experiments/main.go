// Command experiments regenerates every evaluation experiment (E1–E8 in
// DESIGN.md §3) plus the design-choice ablations, printing the tables that
// EXPERIMENTS.md records.
//
// Usage:
//
//	experiments [-quick] [-only E1,E4]
//
// -quick caps the E1 sweep at 4096 threads and the E4 sweep at 256 so the
// whole run finishes in well under a minute.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"text/tabwriter"

	"perfdmf/internal/experiments"
)

func main() {
	// Bulk archival workload: the paper's 1.6M-point trial keeps on the
	// order of a gigabyte live, so trade heap headroom for fewer GC cycles
	// (the same knob a production bulk loader would set).
	debug.SetGCPercent(300)
	quick := flag.Bool("quick", false, "smaller sweeps")
	only := flag.String("only", "", "comma-separated experiment subset (e.g. E1,E4,AB)")
	flag.Parse()
	if err := run(*quick, *only); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(quick bool, only string) error {
	want := func(id string) bool {
		if only == "" {
			return true
		}
		for _, w := range strings.Split(only, ",") {
			if strings.EqualFold(strings.TrimSpace(w), id) {
				return true
			}
		}
		return false
	}

	if want("E1") {
		if err := runE1(quick); err != nil {
			return err
		}
	}
	if want("E2") {
		if err := runE2(); err != nil {
			return err
		}
	}
	if want("E3") {
		if err := runE3(); err != nil {
			return err
		}
	}
	if want("E4") {
		if err := runE4(quick); err != nil {
			return err
		}
	}
	if want("E5") {
		if err := runE5(); err != nil {
			return err
		}
	}
	if want("E6") {
		if err := runE6(); err != nil {
			return err
		}
	}
	if want("E7") {
		if err := runE7(); err != nil {
			return err
		}
	}
	if want("E8") {
		if err := runE8(); err != nil {
			return err
		}
	}
	if want("AB") {
		if err := runAblations(quick); err != nil {
			return err
		}
	}
	return nil
}

func header(id, title string) {
	fmt.Printf("\n=== %s: %s ===\n\n", id, title)
}

func runE1(quick bool) error {
	header("E1", "large-scale profile handling (101 events, paper §3.1/§5.3)")
	sizes := []int{1024, 2048, 4096, 8192, 16384}
	if quick {
		sizes = []int{256, 1024, 4096}
	}
	rows, err := experiments.RunE1(sizes, 101)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "THREADS\tDATA POINTS\tGENERATE\tUPLOAD\tQUERY\tRELOAD\tPOINTS/S\t\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%v\t%v\t%v\t%v\t%.0f\t\n",
			r.Threads, r.DataPoints,
			r.Generate.Round(1e6), r.Upload.Round(1e6),
			r.Query.Round(1e5), r.Load.Round(1e6), r.UploadRate)
	}
	w.Flush()
	last := rows[len(rows)-1]
	fmt.Printf("\npaper claim: \"101 events on 16K processors ... 1.6M data points ... handled without problems\"\n")
	fmt.Printf("measured: %d data points at %d threads uploaded in %v, reloaded in %v, intact.\n",
		last.DataPoints, last.Threads, last.Upload.Round(1e6), last.Load.Round(1e6))
	return nil
}

func runE2() error {
	header("E2", "six-format import into one archive (paper Fig. 2, §3.1)")
	dir, err := os.MkdirTemp("", "perfdmf-e2")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rows, err := experiments.RunE2(dir)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "FORMAT\tTHREADS\tDATA POINTS\tPARSE\tUPLOAD\tROUND TRIP\n")
	for _, r := range rows {
		ok := "ok"
		if !r.RoundTrip {
			ok = "FAILED"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%v\t%s\n",
			r.Format, r.Threads, r.DataPoints, r.Parse.Round(1e4), r.Upload.Round(1e4), ok)
	}
	return w.Flush()
}

func runE3() error {
	header("E3", "EVH1 speedup analyzer (paper §5.2)")
	res, err := experiments.RunE3([]int{1, 2, 4, 8, 16, 32, 64})
	if err != nil {
		return err
	}
	study := res.Study
	fmt.Printf("uploaded series in %v; analysis in %v\n\n",
		res.Upload.Round(1e6), res.Analysis.Round(1e6))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "PROCS\tSPEEDUP\tEFFICIENCY\t\n")
	for i, procs := range study.Procs {
		fmt.Fprintf(w, "%d\t%.2f\t%.1f%%\t\n", procs, study.AppSpeed[i], 100*study.AppEff[i])
	}
	w.Flush()
	fmt.Printf("\nper-routine min/mean/max speedup at %dp:\n", study.Procs[len(study.Procs)-1])
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, r := range study.Routines {
		last := r.Points[len(r.Points)-1]
		fmt.Fprintf(w, "%s\t%.2f / %.2f / %.2f\n", r.Name, last.Min, last.Mean, last.Max)
	}
	return w.Flush()
}

func runE4(quick bool) error {
	header("E4", "PerfExplorer clustering on sPPM-like counters (paper §5.3)")
	sizes := []int{128, 256, 512, 1024}
	if quick {
		sizes = []int{64, 256}
	}
	rows, err := experiments.RunE4(sizes)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "THREADS\tDIMS\tEXTRACT\tCLUSTER\tK\tAGREEMENT\t\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%v\t%v\t%d\t%.1f%%\t\n",
			r.Threads, r.Dimensions, r.Extract.Round(1e5), r.Cluster.Round(1e5),
			r.K, 100*r.Agreement)
	}
	w.Flush()
	fmt.Println("\npaper claim: cluster analysis on up to 1024 threads × 7 PAPI counters reproduces")
	fmt.Println("the sPPM floating-point behaviour classes (Ahn & Vetter).")
	return nil
}

func runE5() error {
	header("E5", "API vs raw SQL on both back ends (paper §3.1, §4)")
	dir, err := os.MkdirTemp("", "perfdmf-e5")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rows, err := experiments.RunE5(dir)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "BACKEND\tACCESS\tQUERIES\tTOTAL\tPER QUERY\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%v\n",
			r.Backend, r.Path, r.Queries, r.Elapsed.Round(1e5),
			(r.Elapsed / 20).Round(1e4))
	}
	return w.Flush()
}

func runE6() error {
	header("E6", "flexible schema via ALTER TABLE + metadata discovery (paper §3.2)")
	res, err := experiments.RunE6()
	if err != nil {
		return err
	}
	fmt.Printf("add columns: %v, save with new column: %v, reload: %v, drop: %v\n",
		res.AddColumn.Round(1e4), res.SaveWithCol.Round(1e4),
		res.Reload.Round(1e4), res.DropColumn.Round(1e4))
	fmt.Printf("flexible fields round trip: %v; clean after drop: %v\n", res.FieldsOK, res.DroppedClean)
	if !res.FieldsOK || !res.DroppedClean {
		return fmt.Errorf("E6 failed")
	}
	return nil
}

func runE7() error {
	header("E7", "derived metric saved into an existing trial (paper §4)")
	res, err := experiments.RunE7(128)
	if err != nil {
		return err
	}
	fmt.Printf("derive: %v, save: %v, reload: %v (%d data points)\n",
		res.Derive.Round(1e5), res.Save.Round(1e5), res.Reload.Round(1e5), res.DataPoints)
	fmt.Printf("FLOPS = PAPI_FP_OPS / TIME verified after reload: %v\n", res.ValueOK)
	if !res.ValueOK {
		return fmt.Errorf("E7 failed")
	}
	return nil
}

func runE8() error {
	header("E8", "common XML export/import round trip (paper §3.1)")
	dir, err := os.MkdirTemp("", "perfdmf-e8")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := experiments.RunE8(dir, 64, 40)
	if err != nil {
		return err
	}
	fmt.Printf("export: %v, import: %v, %d bytes for %d data points, lossless: %v\n",
		res.Export.Round(1e5), res.Import.Round(1e5), res.Bytes, res.DataPoints, res.Lossless)
	if !res.Lossless {
		return fmt.Errorf("E8 failed")
	}
	return nil
}

func runAblations(quick bool) error {
	header("AB", "design-choice ablations (DESIGN.md §4)")
	threads := 256
	if quick {
		threads = 64
	}
	var all []experiments.AblationRow
	batch, err := experiments.RunAblationBatchInsert(threads, 40)
	if err != nil {
		return err
	}
	all = append(all, batch...)
	index, err := experiments.RunAblationIndex(threads/2, 30, 6)
	if err != nil {
		return err
	}
	all = append(all, index...)
	summary, err := experiments.RunAblationSummary(threads, 40)
	if err != nil {
		return err
	}
	all = append(all, summary...)
	seeding, err := experiments.RunAblationSeeding(threads)
	if err != nil {
		return err
	}
	all = append(all, seeding...)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "ABLATION\tVARIANT\tELAPSED\tDETAIL\n")
	for _, r := range all {
		fmt.Fprintf(w, "%s\t%s\t%v\t%s\n", r.Name, r.Variant, r.Elapsed.Round(1e5), r.Detail)
	}
	return w.Flush()
}
