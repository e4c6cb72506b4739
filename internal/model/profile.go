// Package model defines PerfDMF's common parallel profile representation
// (paper §3.1, §4): performance data organized by node, context, thread,
// metric and event. Every profile format parser targets this model, the
// database layer stores and loads it, and the analysis toolkit consumes it.
//
// Interval events carry cumulative timer/counter data (inclusive,
// exclusive, calls, subroutines) per metric; atomic events carry
// sample statistics (count, min, max, mean, sum of squares). Total and
// mean summaries across all threads correspond to the paper's
// INTERVAL_TOTAL_SUMMARY and INTERVAL_MEAN_SUMMARY tables.
package model

import (
	"fmt"
	"math"
	"sort"
)

// Metric identifies one measured quantity (wall-clock time, PAPI counter,
// or a derived metric).
type Metric struct {
	ID      int
	Name    string
	Derived bool
}

// IntervalEvent is a named code region (function, loop, basic block) with
// an event group (e.g. "MPI", "computation").
type IntervalEvent struct {
	ID    int
	Name  string
	Group string
}

// AtomicEvent is a user-defined counter sampled at instrumentation points.
type AtomicEvent struct {
	ID    int
	Name  string
	Group string
}

// IntervalData is the cumulative profile of one interval event on one
// thread: call counts plus one PerMetric entry per trial metric.
type IntervalData struct {
	NumCalls  float64
	NumSubrs  float64
	PerMetric []MetricData // indexed by Metric.ID
}

// MetricData is the (inclusive, exclusive) pair for one metric.
type MetricData struct {
	Inclusive float64
	Exclusive float64
}

// InclusivePerCall returns inclusive/calls for metric m, or 0 when the
// event was never called.
func (d *IntervalData) InclusivePerCall(m int) float64 {
	if d.NumCalls == 0 {
		return 0
	}
	return d.PerMetric[m].Inclusive / d.NumCalls
}

// AtomicData is the sample statistics of one atomic event on one thread.
type AtomicData struct {
	SampleCount int64
	Maximum     float64
	Minimum     float64
	Mean        float64
	SumSqr      float64 // sum of squared samples, for standard deviation
}

// StdDev returns the population standard deviation of the samples.
func (a *AtomicData) StdDev() float64 {
	if a.SampleCount == 0 {
		return 0
	}
	n := float64(a.SampleCount)
	v := a.SumSqr/n - a.Mean*a.Mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// ThreadID locates one thread of execution.
type ThreadID struct {
	Node    int
	Context int
	Thread  int
}

// Less orders thread IDs by node, then context, then thread.
func (t ThreadID) Less(o ThreadID) bool {
	if t.Node != o.Node {
		return t.Node < o.Node
	}
	if t.Context != o.Context {
		return t.Context < o.Context
	}
	return t.Thread < o.Thread
}

func (t ThreadID) String() string {
	return fmt.Sprintf("%d,%d,%d", t.Node, t.Context, t.Thread)
}

// Thread holds one thread's interval and atomic profiles, keyed by event ID.
type Thread struct {
	ID       ThreadID
	interval map[int]*IntervalData
	atomic   map[int]*AtomicData

	// New interval data is carved from these fixed blocks of hint
	// entries, hint being the profile's event count when the thread was
	// created (at least minDataBlock); a block is replaced when used up,
	// never grown, so carved data never moves.
	hint      int
	dataBlock []IntervalData
	cellBlock []MetricData
}

// Profile is the common in-memory representation of one trial's parallel
// profile. The zero value is not usable; call New.
type Profile struct {
	Name    string
	Meta    map[string]string // trial-level metadata (problem size, date, ...)
	metrics []Metric
	events  []*IntervalEvent
	atomics []*AtomicEvent

	eventByName  map[string]*IntervalEvent
	atomicByName map[string]*AtomicEvent
	metricByName map[string]int

	threads map[ThreadID]*Thread
	order   []ThreadID // insertion-ordered; sorted lazily
	sorted  bool
}

// New returns an empty profile.
func New(name string) *Profile {
	return &Profile{
		Name:         name,
		Meta:         make(map[string]string),
		eventByName:  make(map[string]*IntervalEvent),
		atomicByName: make(map[string]*AtomicEvent),
		metricByName: make(map[string]int),
		threads:      make(map[ThreadID]*Thread),
	}
}

// AddMetric registers a metric name, returning its ID. Adding an existing
// name returns the existing ID.
func (p *Profile) AddMetric(name string) int {
	if id, ok := p.metricByName[name]; ok {
		return id
	}
	id := len(p.metrics)
	p.metrics = append(p.metrics, Metric{ID: id, Name: name})
	p.metricByName[name] = id
	p.growMetricData()
	return id
}

// addDerivedMetric registers a metric flagged as derived.
func (p *Profile) addDerivedMetric(name string) int {
	id := p.AddMetric(name)
	p.metrics[id].Derived = true
	return id
}

// SetDerived flags an existing metric as derived (used when re-importing
// profiles whose serialized form records provenance).
func (p *Profile) SetDerived(id int) {
	if id >= 0 && id < len(p.metrics) {
		p.metrics[id].Derived = true
	}
}

// growMetricData widens every thread's interval data to the current metric
// count.
func (p *Profile) growMetricData() {
	n := len(p.metrics)
	for _, th := range p.threads {
		for _, d := range th.interval {
			for len(d.PerMetric) < n {
				d.PerMetric = append(d.PerMetric, MetricData{})
			}
		}
	}
}

// Metrics returns the trial's metrics in ID order.
func (p *Profile) Metrics() []Metric { return p.metrics }

// MetricID returns the ID of a metric by name, or -1.
func (p *Profile) MetricID(name string) int {
	if id, ok := p.metricByName[name]; ok {
		return id
	}
	return -1
}

// AddIntervalEvent registers an interval event, returning the existing one
// when the name is already present (the group is kept from first sight).
func (p *Profile) AddIntervalEvent(name, group string) *IntervalEvent {
	if e, ok := p.eventByName[name]; ok {
		return e
	}
	e := &IntervalEvent{ID: len(p.events), Name: name, Group: group}
	p.events = append(p.events, e)
	p.eventByName[name] = e
	return e
}

// IntervalEvents returns the interval events in ID order.
func (p *Profile) IntervalEvents() []*IntervalEvent { return p.events }

// FindIntervalEvent returns the named event, or nil.
func (p *Profile) FindIntervalEvent(name string) *IntervalEvent {
	return p.eventByName[name]
}

// AddAtomicEvent registers an atomic (user-defined) event.
func (p *Profile) AddAtomicEvent(name, group string) *AtomicEvent {
	if e, ok := p.atomicByName[name]; ok {
		return e
	}
	e := &AtomicEvent{ID: len(p.atomics), Name: name, Group: group}
	p.atomics = append(p.atomics, e)
	p.atomicByName[name] = e
	return e
}

// AtomicEvents returns the atomic events in ID order.
func (p *Profile) AtomicEvents() []*AtomicEvent { return p.atomics }

// FindAtomicEvent returns the named atomic event, or nil.
func (p *Profile) FindAtomicEvent(name string) *AtomicEvent {
	return p.atomicByName[name]
}

// Thread returns the thread with the given ID, creating it if needed.
func (p *Profile) Thread(node, context, thread int) *Thread {
	id := ThreadID{Node: node, Context: context, Thread: thread}
	th := p.threads[id]
	if th == nil {
		th = &Thread{
			ID:       id,
			interval: make(map[int]*IntervalData, len(p.events)),
			atomic:   make(map[int]*AtomicData),
			hint:     max(len(p.events), minDataBlock),
		}
		p.threads[id] = th
		p.order = append(p.order, id)
		p.sorted = false
	}
	return th
}

// FindThread returns an existing thread, or nil.
func (p *Profile) FindThread(node, context, thread int) *Thread {
	return p.threads[ThreadID{Node: node, Context: context, Thread: thread}]
}

// Threads returns all threads sorted by (node, context, thread).
func (p *Profile) Threads() []*Thread {
	if !p.sorted {
		sort.Slice(p.order, func(i, j int) bool { return p.order[i].Less(p.order[j]) })
		p.sorted = true
	}
	out := make([]*Thread, len(p.order))
	for i, id := range p.order {
		out[i] = p.threads[id]
	}
	return out
}

// NumThreads returns the total number of threads.
func (p *Profile) NumThreads() int { return len(p.threads) }

// NodeCount returns the number of distinct nodes.
func (p *Profile) NodeCount() int {
	seen := make(map[int]bool)
	for id := range p.threads {
		seen[id.Node] = true
	}
	return len(seen)
}

// ContextsPerNode returns the maximum number of contexts on any node.
func (p *Profile) ContextsPerNode() int {
	per := make(map[int]map[int]bool)
	for id := range p.threads {
		if per[id.Node] == nil {
			per[id.Node] = make(map[int]bool)
		}
		per[id.Node][id.Context] = true
	}
	max := 0
	for _, ctxs := range per {
		if len(ctxs) > max {
			max = len(ctxs)
		}
	}
	return max
}

// MaxThreadsPerContext returns the maximum thread count in any context.
func (p *Profile) MaxThreadsPerContext() int {
	per := make(map[[2]int]int)
	for id := range p.threads {
		per[[2]int{id.Node, id.Context}]++
	}
	max := 0
	for _, n := range per {
		if n > max {
			max = n
		}
	}
	return max
}

// DataPoints returns the number of (thread, event, metric) interval
// measurements in the profile — the unit the paper counts when it reports
// the 16K-processor Miranda trial as 1.6 million data points.
func (p *Profile) DataPoints() int {
	n := 0
	for _, th := range p.threads {
		n += len(th.interval)
	}
	return n * len(p.metrics)
}

// minDataBlock is the fewest interval data entries a thread's block holds.
const minDataBlock = 16

// IntervalData returns the thread's profile for event (by ID), creating a
// zero entry if needed.
func (t *Thread) IntervalData(eventID, numMetrics int) *IntervalData {
	d := t.interval[eventID]
	if d == nil {
		d = t.newIntervalData(numMetrics)
		t.interval[eventID] = d
	}
	for len(d.PerMetric) < numMetrics {
		d.PerMetric = append(d.PerMetric, MetricData{})
	}
	return d
}

// newIntervalData carves a zero entry with numMetrics metric cells from
// the thread's blocks. PerMetric's capacity equals its length, so
// widening it copies instead of writing into a neighbour's cells.
func (t *Thread) newIntervalData(numMetrics int) *IntervalData {
	if len(t.dataBlock) == 0 {
		t.dataBlock = make([]IntervalData, t.hint)
	}
	d := &t.dataBlock[0]
	t.dataBlock = t.dataBlock[1:]
	if t.cellBlock == nil || len(t.cellBlock) < numMetrics {
		t.cellBlock = make([]MetricData, t.hint*numMetrics)
	}
	d.PerMetric = t.cellBlock[:numMetrics:numMetrics]
	t.cellBlock = t.cellBlock[numMetrics:]
	return d
}

// FindIntervalData returns the thread's profile for event, or nil.
func (t *Thread) FindIntervalData(eventID int) *IntervalData {
	return t.interval[eventID]
}

// EachInterval visits the thread's interval data in event-ID order.
func (t *Thread) EachInterval(fn func(eventID int, d *IntervalData)) {
	ids := make([]int, 0, len(t.interval))
	for id := range t.interval {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fn(id, t.interval[id])
	}
}

// AtomicData returns the thread's statistics for an atomic event, creating
// a zero entry if needed.
func (t *Thread) AtomicData(eventID int) *AtomicData {
	d := t.atomic[eventID]
	if d == nil {
		d = &AtomicData{}
		t.atomic[eventID] = d
	}
	return d
}

// FindAtomicData returns the thread's statistics for an atomic event, or nil.
func (t *Thread) FindAtomicData(eventID int) *AtomicData {
	return t.atomic[eventID]
}

// EachAtomic visits the thread's atomic data in event-ID order.
func (t *Thread) EachAtomic(fn func(eventID int, d *AtomicData)) {
	ids := make([]int, 0, len(t.atomic))
	for id := range t.atomic {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fn(id, t.atomic[id])
	}
}

// SetIntervalData is a convenience for parsers: it registers the event and
// metric and records the measurement in one call.
func (p *Profile) SetIntervalData(th *Thread, eventName, group, metricName string,
	inclusive, exclusive, calls, subrs float64) {
	e := p.AddIntervalEvent(eventName, group)
	m := p.AddMetric(metricName)
	d := th.IntervalData(e.ID, len(p.metrics))
	d.PerMetric[m] = MetricData{Inclusive: inclusive, Exclusive: exclusive}
	if calls != 0 {
		d.NumCalls = calls
	}
	if subrs != 0 {
		d.NumSubrs = subrs
	}
}

// Validate checks internal consistency: every thread's interval data must
// be as wide as the metric list, exclusive must not exceed inclusive
// (within rounding), and event IDs must be in range.
func (p *Profile) Validate() error {
	nm := len(p.metrics)
	for _, th := range p.threads {
		for eid, d := range th.interval {
			if eid < 0 || eid >= len(p.events) {
				return fmt.Errorf("model: thread %s references unknown event %d", th.ID, eid)
			}
			if len(d.PerMetric) != nm {
				return fmt.Errorf("model: thread %s event %q has %d metric slots, want %d",
					th.ID, p.events[eid].Name, len(d.PerMetric), nm)
			}
			for m, md := range d.PerMetric {
				if md.Exclusive > md.Inclusive*(1+1e-9)+1e-9 {
					return fmt.Errorf("model: thread %s event %q metric %q: exclusive %g > inclusive %g",
						th.ID, p.events[eid].Name, p.metrics[m].Name, md.Exclusive, md.Inclusive)
				}
			}
		}
		for eid := range th.atomic {
			if eid < 0 || eid >= len(p.atomics) {
				return fmt.Errorf("model: thread %s references unknown atomic event %d", th.ID, eid)
			}
		}
	}
	return nil
}
