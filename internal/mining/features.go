package mining

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"perfdmf/internal/core"
)

// FeatureMatrix is the per-thread feature representation PerfExplorer
// clusters: one row per thread of execution, one column per
// (event, metric) pair, holding the exclusive value.
type FeatureMatrix struct {
	TrialID int64
	Threads []ThreadKey
	Columns []string // "event|metric" labels
	Rows    [][]float64
}

// ThreadKey locates a row's thread.
type ThreadKey struct {
	Node, Context, Thread int64
}

// ExtractFeatures builds the feature matrix for a trial from the database,
// restricted to the named metrics (nil means all of the trial's metrics).
// Rows are ordered by (node, context, thread); columns by event name then
// metric name, so the matrix is deterministic.
func ExtractFeatures(s *core.DataSession, trialID int64, metrics []string) (fm *FeatureMatrix, err error) {
	err = miningOp(context.Background(), fmt.Sprintf("mining:extract:trial%d", trialID),
		mExtractNS, s.BindSpanContext, func(context.Context) error {
			fm, err = extractFeatures(s, trialID, metrics)
			return err
		})
	return fm, err
}

func extractFeatures(s *core.DataSession, trialID int64, metrics []string) (*FeatureMatrix, error) {
	prev := s.Trial()
	defer s.SetTrial(prev)
	s.SetTrial(&core.Trial{ID: trialID})

	allMetrics, err := s.MetricList()
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool)
	if metrics == nil {
		for _, m := range allMetrics {
			want[m.Name] = true
		}
	} else {
		for _, m := range metrics {
			want[m] = true
		}
	}
	var selected []*core.Metric
	metricCol := make(map[int64]int) // metric db id -> metric order
	for _, m := range allMetrics {
		if want[m.Name] {
			metricCol[m.ID] = len(selected)
			selected = append(selected, m)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("mining: trial %d has none of the requested metrics", trialID)
	}

	events, err := s.IntervalEventList()
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("mining: trial %d has no events", trialID)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Name < events[j].Name })
	eventCol := make(map[int64]int)
	for i, e := range events {
		eventCol[e.ID] = i
	}

	fm := &FeatureMatrix{TrialID: trialID}
	for _, e := range events {
		for _, m := range selected {
			fm.Columns = append(fm.Columns, e.Name+"|"+m.Name)
		}
	}
	nmSel := len(selected)
	rowOf := make(map[ThreadKey]int)

	// One statement reads every profile row of the trial, in slot order,
	// through the profile table's event index.
	rows, err := s.Conn().Query(`SELECT interval_event, node, context, thread, metric, exclusive
		FROM interval_location_profile
		WHERE interval_event IN (SELECT id FROM interval_event WHERE trial = ?)`, trialID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	// Scan destinations outside the row loop: per-row address-taking would
	// heap-allocate every variable once per row.
	var event, node, context, thread, metric int64
	var excl float64
	dest := []any{&event, &node, &context, &thread, &metric, &excl}
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			return nil, err
		}
		mc, ok := metricCol[metric]
		if !ok {
			continue
		}
		key := ThreadKey{node, context, thread}
		ri, ok := rowOf[key]
		if !ok {
			ri = len(fm.Rows)
			rowOf[key] = ri
			fm.Threads = append(fm.Threads, key)
			fm.Rows = append(fm.Rows, make([]float64, len(fm.Columns)))
		}
		fm.Rows[ri][eventCol[event]*nmSel+mc] = excl
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	if len(fm.Rows) == 0 {
		return nil, fmt.Errorf("mining: trial %d has no location profiles", trialID)
	}
	// Deterministic row order.
	order := make([]int, len(fm.Rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := fm.Threads[order[a]], fm.Threads[order[b]]
		if ta.Node != tb.Node {
			return ta.Node < tb.Node
		}
		if ta.Context != tb.Context {
			return ta.Context < tb.Context
		}
		return ta.Thread < tb.Thread
	})
	threads := make([]ThreadKey, len(order))
	ordered := make([][]float64, len(order))
	for i, j := range order {
		threads[i] = fm.Threads[j]
		ordered[i] = fm.Rows[j]
	}
	fm.Threads = threads
	fm.Rows = ordered
	return fm, nil
}

// Normalization selects how features are scaled before clustering.
type Normalization int

const (
	// NormNone leaves raw values.
	NormNone Normalization = iota
	// NormZScore centers each column and divides by its standard
	// deviation (columns with zero variance become zero).
	NormZScore
	// NormMinMax rescales each column to [0, 1].
	NormMinMax
)

// Normalize rescales the matrix columns in place according to the mode and
// returns the matrix for chaining.
func (fm *FeatureMatrix) Normalize(mode Normalization) *FeatureMatrix {
	if mode == NormNone || len(fm.Rows) == 0 {
		return fm
	}
	dims := len(fm.Columns)
	n := float64(len(fm.Rows))
	switch mode {
	case NormZScore:
		for d := 0; d < dims; d++ {
			mean, sq := 0.0, 0.0
			for _, r := range fm.Rows {
				mean += r[d]
				sq += r[d] * r[d]
			}
			mean /= n
			variance := sq/n - mean*mean
			if variance <= 0 {
				for _, r := range fm.Rows {
					r[d] = 0
				}
				continue
			}
			sd := math.Sqrt(variance)
			for _, r := range fm.Rows {
				r[d] = (r[d] - mean) / sd
			}
		}
	case NormMinMax:
		for d := 0; d < dims; d++ {
			lo, hi := fm.Rows[0][d], fm.Rows[0][d]
			for _, r := range fm.Rows {
				if r[d] < lo {
					lo = r[d]
				}
				if r[d] > hi {
					hi = r[d]
				}
			}
			span := hi - lo
			for _, r := range fm.Rows {
				if span == 0 {
					r[d] = 0
				} else {
					r[d] = (r[d] - lo) / span
				}
			}
		}
	}
	return fm
}

// ClusterSummary describes one cluster in event/metric terms — the
// "summarization of the clusters" the paper describes.
type ClusterSummary struct {
	Cluster int
	Size    int
	// TopDimensions lists the dimensions with the largest centroid values,
	// as "event|metric" labels with their centroid value.
	TopDimensions []DimValue
	ThreadRange   string // compact description of member threads
}

// DimValue pairs a dimension label with a value.
type DimValue struct {
	Label string
	Value float64
}

// Summarize produces per-cluster summaries over the original (pre-
// normalization) matrix values.
func Summarize(fm *FeatureMatrix, cl *Clustering, topN int) []ClusterSummary {
	if topN <= 0 {
		topN = 5
	}
	out := make([]ClusterSummary, cl.K)
	for c := 0; c < cl.K; c++ {
		out[c].Cluster = c
		out[c].Size = cl.Sizes[c]
	}
	// Mean per dimension per cluster from the matrix itself.
	dims := len(fm.Columns)
	sums := make([][]float64, cl.K)
	for c := range sums {
		sums[c] = make([]float64, dims)
	}
	members := make([][]int64, cl.K)
	for i, r := range fm.Rows {
		c := cl.Assignments[i]
		for d, v := range r {
			sums[c][d] += v
		}
		members[c] = append(members[c], fm.Threads[i].Node)
	}
	for c := 0; c < cl.K; c++ {
		if cl.Sizes[c] == 0 {
			continue
		}
		vals := make([]DimValue, dims)
		for d := 0; d < dims; d++ {
			vals[d] = DimValue{Label: fm.Columns[d], Value: sums[c][d] / float64(cl.Sizes[c])}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].Value > vals[b].Value })
		if topN < len(vals) {
			vals = vals[:topN]
		}
		out[c].TopDimensions = vals
		out[c].ThreadRange = rangeString(members[c])
	}
	return out
}

// rangeString compresses a sorted list of node ids to "0-3,7,9-12" form.
func rangeString(nodes []int64) string {
	if len(nodes) == 0 {
		return ""
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var b strings.Builder
	start, prev := nodes[0], nodes[0]
	flush := func() {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if start == prev {
			fmt.Fprintf(&b, "%d", start)
		} else {
			fmt.Fprintf(&b, "%d-%d", start, prev)
		}
	}
	for _, n := range nodes[1:] {
		if n == prev || n == prev+1 {
			prev = n
			continue
		}
		flush()
		start, prev = n, n
	}
	flush()
	return b.String()
}
