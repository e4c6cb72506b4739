package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span records one statement's journey through the stack: the godbc layer
// stamps parse time and totals, sqlexec fills in the plan/execute/
// materialize phases, the access-path decision, and rows scanned vs.
// returned. A span costs nothing unless tracing or the slow-query log is
// active — callers pass nil otherwise.
type Span struct {
	// ID is a process-wide monotonically increasing span id (see NextSpanID).
	// It appears in the slow-query log line, the /traces endpoint and the
	// PERFDMF_SPANS / PERFDMF_SLOWLOG telemetry tables, so an entry in any
	// one of them can be joined against the others.
	ID int64 `json:"id"`
	// ParentID links this span into a causal tree: 0 marks a root, any
	// other value is the ID of the span that was active (via
	// ContextWithSpan / a bound connection) when this one started.
	ParentID int64 `json:"parent_id,omitempty"`
	// Kind is "exec", "query" or "prepare" for statement spans, or a
	// framework layer ("parse", "upload", "download", "analysis",
	// "mining", "load", "phase") for spans started with StartSpan.
	Kind string `json:"kind"`
	// Name labels framework spans ("upload:trialX", "parse:tau:file");
	// statement spans leave it empty and are labeled by Statement.
	Name string `json:"name,omitempty"`
	// Root is the Name of the tree's root span, copied onto every
	// descendant so any span — including a slow-query log line — is
	// attributable to the workload that caused it without a join.
	Root      string    `json:"root,omitempty"`
	Statement string    `json:"statement,omitempty"`
	Params    int       `json:"params"` // bound-parameter count
	Start     time.Time `json:"start"`

	// Phase timings. For Exec statements the engine work is folded into
	// Execute; Prepare spans only have Parse.
	Parse       time.Duration `json:"parse_ns"`
	Plan        time.Duration `json:"plan_ns"`
	Execute     time.Duration `json:"execute_ns"`
	Materialize time.Duration `json:"materialize_ns"`
	Total       time.Duration `json:"total_ns"`

	RowsScanned  int64  `json:"rows_scanned"`
	RowsReturned int64  `json:"rows_returned"`
	IndexUsed    bool   `json:"index_used"`
	PlanSummary  string `json:"plan_summary,omitempty"`
	Err          string `json:"err,omitempty"`
}

// spanIDs backs NextSpanID.
var spanIDs atomic.Int64

// NextSpanID returns the next process-wide span id (1, 2, ...). The godbc
// layer stamps every span it starts.
func NextSpanID() int64 { return spanIDs.Add(1) }

// EnsureSpanIDsAbove raises the span-id counter so the next id is > n.
// The telemetry store calls it with MAX(span_id) from PERFDMF_SPANS at
// open: ids are only monotonic within a process, and a second process
// writing into the same archive must not collide with persisted rows.
func EnsureSpanIDsAbove(n int64) {
	for {
		cur := spanIDs.Load()
		if cur >= n || spanIDs.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Op returns the grouping key for per-operation telemetry queries: for
// named framework spans the part of Name before the first ':' ("upload",
// "parse"), otherwise the statement's leading SQL keyword, upper-cased
// ("SELECT", "INSERT", ...), or "" for an empty statement.
func (sp *Span) Op() string {
	if sp.Name != "" {
		if i := strings.IndexByte(sp.Name, ':'); i > 0 {
			return sp.Name[:i]
		}
		return sp.Name
	}
	f := strings.Fields(sp.Statement)
	if len(f) == 0 {
		return ""
	}
	return strings.ToUpper(f[0])
}

// Label returns the human-facing identity of the span: Name for framework
// spans, the compacted statement (capped at max bytes) for statement spans.
func (sp *Span) Label(max int) string {
	if sp.Name != "" {
		return sp.Name
	}
	return sp.CompactStatement(max)
}

// CompactStatement returns the statement text with whitespace collapsed and
// truncated to max bytes (a trailing "..." marks truncation).
func (sp *Span) CompactStatement(max int) string {
	stmt := strings.Join(strings.Fields(sp.Statement), " ")
	if max > 3 && len(stmt) > max {
		stmt = stmt[:max-3] + "..."
	}
	return stmt
}

// String renders the span as the one-line slow-query log format documented
// in docs/OBSERVABILITY.md. The id and RFC3339 start time let a log line be
// joined against /traces and the PERFDMF_SPANS table.
func (sp *Span) String() string {
	stmt := sp.Label(200)
	var b strings.Builder
	fmt.Fprintf(&b, "%s id=%d kind=%s total=%v parse=%v plan=%v execute=%v materialize=%v rows=%d/%d params=%d",
		sp.Start.Format(time.RFC3339), sp.ID, sp.Kind, sp.Total, sp.Parse, sp.Plan,
		sp.Execute, sp.Materialize, sp.RowsScanned, sp.RowsReturned, sp.Params)
	if sp.ParentID != 0 {
		fmt.Fprintf(&b, " parent=%d", sp.ParentID)
	}
	if sp.Root != "" {
		fmt.Fprintf(&b, " root=%q", sp.Root)
	}
	if sp.PlanSummary != "" {
		fmt.Fprintf(&b, " plan=%q", sp.PlanSummary)
	}
	if sp.Err != "" {
		fmt.Fprintf(&b, " err=%q", sp.Err)
	}
	fmt.Fprintf(&b, " stmt=%q", stmt)
	return b.String()
}

// --- global tracing / slow-query configuration ---

var (
	traceEnabled  atomic.Bool
	slowThreshold atomic.Int64 // nanoseconds; 0 disables the slow-query log
	timingEnabled atomic.Bool  // traceEnabled || slowThreshold > 0
)

func refreshTiming() {
	timingEnabled.Store(traceEnabled.Load() || slowThreshold.Load() > 0)
}

// SetTracing turns statement tracing on or off globally. Connections can
// override this per DSN (godbc's ?trace=1).
func SetTracing(on bool) {
	traceEnabled.Store(on)
	refreshTiming()
}

// TracingEnabled reports the global tracing switch.
func TracingEnabled() bool { return traceEnabled.Load() }

// SetSlowQueryThreshold sets the global slow-query threshold; statements
// that take at least d are recorded in DefaultSlowLog. Zero disables.
func SetSlowQueryThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	slowThreshold.Store(int64(d))
	refreshTiming()
}

// SlowQueryThreshold returns the global threshold (0 = disabled).
func SlowQueryThreshold() time.Duration {
	return time.Duration(slowThreshold.Load())
}

// TimingEnabled reports whether any consumer (tracing or the slow-query
// log) needs per-statement wall-clock timing. Hot paths gate their
// time.Now calls on this so the idle cost stays at a few atomic adds.
func TimingEnabled() bool { return timingEnabled.Load() }

// Config bundles the runtime-tunable observability settings.
type Config struct {
	// Trace enables per-statement span recording into DefaultTracer.
	Trace bool
	// SlowQuery is the slow-query log threshold; zero disables the log.
	SlowQuery time.Duration
}

// Apply installs cfg globally.
func Apply(cfg Config) {
	SetTracing(cfg.Trace)
	SetSlowQueryThreshold(cfg.SlowQuery)
}

// Env var names honoured at startup (and re-readable via ApplyEnv):
// PERFDMF_TRACE=1 enables tracing, PERFDMF_SLOW_MS=50 sets the slow-query
// threshold in milliseconds.
const (
	EnvTrace  = "PERFDMF_TRACE"
	EnvSlowMS = "PERFDMF_SLOW_MS"
)

// ApplyEnv reads EnvTrace and EnvSlowMS and applies whatever is set,
// leaving unset knobs untouched. Malformed values are ignored — an
// observability layer must never stop the program it observes.
func ApplyEnv() {
	if v, ok := os.LookupEnv(EnvTrace); ok {
		SetTracing(v == "1" || strings.EqualFold(v, "true") || strings.EqualFold(v, "yes"))
	}
	if v, ok := os.LookupEnv(EnvSlowMS); ok {
		if ms, err := strconv.Atoi(v); err == nil && ms >= 0 {
			SetSlowQueryThreshold(time.Duration(ms) * time.Millisecond)
		}
	}
}

func init() { ApplyEnv() }

// --- tracer and slow-query log ---

// Tracer keeps a bounded ring of the most recent spans.
type Tracer struct {
	mu    sync.Mutex
	buf   []*Span
	next  int
	total int64
}

// NewTracer returns a tracer retaining the last n spans.
func NewTracer(n int) *Tracer {
	return &Tracer{buf: make([]*Span, max(n, 1))}
}

// DefaultTracer receives every span when tracing is enabled.
var DefaultTracer = NewTracer(256)

// Record stores a completed span.
func (t *Tracer) Record(sp *Span) {
	t.mu.Lock()
	t.put(sp)
	t.mu.Unlock()
}

// put stores sp; the caller holds t.mu.
func (t *Tracer) put(sp *Span) {
	t.buf[t.next] = sp
	t.next = (t.next + 1) % len(t.buf)
	t.total++
}

// Total returns how many spans have been recorded since process start.
func (t *Tracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Recent returns the retained spans, oldest first.
func (t *Tracer) Recent() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.buf))
	for i := 0; i < len(t.buf); i++ {
		if sp := t.buf[(t.next+i)%len(t.buf)]; sp != nil {
			out = append(out, sp)
		}
	}
	return out
}

// Reset discards retained spans (for tests).
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.buf)
	t.next = 0
	t.total = 0
}

// SlowLog is the ring of statements that exceeded the slow-query
// threshold. Each entry also moves obs_slow_queries_total and, when an
// output is set, is streamed as a formatted line.
type SlowLog struct {
	*Tracer
	out io.Writer // guarded by Tracer.mu
}

// NewSlowLog returns a log retaining the last n slow statements.
func NewSlowLog(n int) *SlowLog {
	return &SlowLog{Tracer: NewTracer(n)}
}

// DefaultSlowLog receives every statement that crosses the threshold.
var DefaultSlowLog = NewSlowLog(128)

var slowQueriesTotal = Default.Counter("obs_slow_queries_total")

// SetOutput streams future entries to w as one-line records (nil disables
// streaming; entries are always retained in the ring).
func (l *SlowLog) SetOutput(w io.Writer) {
	l.Tracer.mu.Lock()
	l.out = w
	l.Tracer.mu.Unlock()
}

// Record stores one slow statement.
func (l *SlowLog) Record(sp *Span) {
	slowQueriesTotal.Inc()
	l.Tracer.mu.Lock()
	l.put(sp)
	out := l.out
	l.Tracer.mu.Unlock()
	if out != nil {
		fmt.Fprintf(out, "slow-query %s\n", sp) //nolint:errcheck // best-effort log stream
	}
}
