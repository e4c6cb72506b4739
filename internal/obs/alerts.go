// SQL-defined alerting, evaluation side. Rules live in the
// PERFDMF_ALERT_RULES table (godbc loads them); AlertSet is the pure state
// machine the telemetry scrape loop drives each sample: a rule whose
// predicate holds moves inactive → pending, holds for its for-duration →
// firing, and stops holding → resolved. Every transition is returned to
// the caller, which persists it into PERFDMF_ALERTS — the state machine
// itself never touches storage, so it is testable with synthetic history.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Alert rule predicate kinds and episode states, as stored in SQL.
const (
	AlertKindThreshold = "threshold"
	AlertKindAnomaly   = "anomaly"

	AlertStatePending  = "pending"
	AlertStateFiring   = "firing"
	AlertStateResolved = "resolved"
	AlertStateOK       = "ok" // snapshot-only: rule evaluated, not breached
)

// DefaultAlertWindow is the evaluation window when a rule does not pick one.
const DefaultAlertWindow = time.Minute

// AlertRule is one row of PERFDMF_ALERT_RULES, decoded.
type AlertRule struct {
	ID     int64  `json:"rule_id"`
	Name   string `json:"name"`
	Metric string `json:"metric"`
	// Kind is the predicate: "threshold" compares the selected aggregate
	// against Threshold with Op; "anomaly" flags the newest observation
	// when it sits more than ZScore standard deviations from the mean of
	// the window's earlier observations.
	Kind string `json:"kind"`
	// Agg selects which windowed aggregate a threshold rule compares:
	// "rate" (default for counters/histograms), "avg", "ewma", "p95",
	// "last" (default for gauges).
	Agg       string  `json:"agg"`
	Op        string  `json:"op"` // "gt" (default) | "lt"
	Threshold float64 `json:"threshold"`
	ZScore    float64 `json:"zscore"`
	// Window is the trailing aggregation window (default DefaultAlertWindow).
	Window time.Duration `json:"window"`
	// For is how long the predicate must hold before pending becomes
	// firing. 0 fires on the first breaching evaluation.
	For      time.Duration `json:"for"`
	Severity string        `json:"severity"` // "info" | "warn" | "critical"
}

// AlertStatus is one rule's live evaluation state: one OBS_ALERT_STATES
// row, its JSON keys the table's column names.
type AlertStatus struct {
	RuleID    int64     `json:"rule_id"`
	RuleName  string    `json:"rule_name"`
	Metric    string    `json:"metric"`
	Severity  string    `json:"severity"`
	State     string    `json:"state"` // "ok" | "pending" | "firing"
	Since     time.Time `json:"since,omitempty"`
	Value     float64   `json:"value"`
	EpisodeID int64     `json:"episode_id,omitempty"`
}

// AlertTransition is one state change, to be persisted as (or applied to)
// a PERFDMF_ALERTS episode row. EpisodeID is 0 for a transition opening a
// new episode; the persister records the inserted row's id back via
// SetEpisodeID so the episode's later transitions update it in place.
type AlertTransition struct {
	RuleID    int64
	RuleName  string
	Metric    string
	Severity  string
	From, To  string
	At        time.Time
	Value     float64
	Threshold float64 // threshold rules: the bound; anomaly rules: ZScore
	Detail    string
	EpisodeID int64
}

var (
	mAlertEvals       = Default.Counter("obs_alerts_evals_total")
	mAlertTransitions = Default.Counter("obs_alerts_transitions_total")
	gAlertRules       = Default.Gauge("obs_alerts_rules")
	gAlertPending     = Default.Gauge("obs_alerts_pending")
	gAlertFiring      = Default.Gauge("obs_alerts_firing")
)

// ruleState is one rule's position in the pending→firing lifecycle.
// state is "" (inactive), AlertStatePending or AlertStateFiring.
type ruleState struct {
	state     string
	since     time.Time // when the current state was entered
	value     float64   // last evaluated value
	episodeID int64     // persisted PERFDMF_ALERTS row, 0 before insert
}

// AlertSet evaluates a rule list against a History. All methods are safe
// for concurrent use; Eval is expected to run on a single scrape loop.
type AlertSet struct {
	mu     sync.Mutex
	rules  []AlertRule
	states map[int64]*ruleState
}

// NewAlertSet returns an empty set; SetRules installs the rules.
func NewAlertSet() *AlertSet {
	return &AlertSet{states: make(map[int64]*ruleState)}
}

// SetRules replaces the rule list (the scrape loop reloads it from SQL).
// Open episodes of rules that disappeared are closed: their resolved
// transitions are returned for persistence.
func (as *AlertSet) SetRules(rules []AlertRule, now time.Time) []AlertTransition {
	as.mu.Lock()
	defer as.mu.Unlock()
	keep := make(map[int64]bool, len(rules))
	for _, r := range rules {
		keep[r.ID] = true
	}
	var out []AlertTransition
	for id, st := range as.states {
		if keep[id] || st.state == "" {
			if !keep[id] {
				delete(as.states, id)
			}
			continue
		}
		out = append(out, AlertTransition{
			RuleID: id, From: st.state, To: AlertStateResolved, At: now,
			Value: st.value, Detail: "rule removed", EpisodeID: st.episodeID,
		})
		delete(as.states, id)
	}
	as.rules = rules
	gAlertRules.Set(int64(len(rules)))
	mAlertTransitions.Add(int64(len(out)))
	return out
}

// Restore seeds one rule's state from a persisted open episode, so a new
// process resumes (and can resolve) episodes an earlier process opened.
func (as *AlertSet) Restore(ruleID int64, state string, since time.Time, value float64, episodeID int64) {
	if state != AlertStatePending && state != AlertStateFiring {
		return
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	as.states[ruleID] = &ruleState{state: state, since: since, value: value, episodeID: episodeID}
}

// SetEpisodeID records the persisted episode row for a rule's open
// episode, after the persister inserted it.
func (as *AlertSet) SetEpisodeID(ruleID, episodeID int64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if st := as.states[ruleID]; st != nil {
		st.episodeID = episodeID
	}
}

// Eval runs every rule against h once. Returned transitions are ordered
// rule by rule (a rule can emit pending and firing in the same evaluation
// when its for-duration is zero).
func (as *AlertSet) Eval(h *History, now time.Time) []AlertTransition {
	as.mu.Lock()
	defer as.mu.Unlock()
	mAlertEvals.Inc()
	var out []AlertTransition
	for _, r := range as.rules {
		breached, value, detail := evalRule(h, r)
		st := as.states[r.ID]
		if st == nil {
			st = &ruleState{}
			as.states[r.ID] = st
		}
		st.value = value
		bound := r.Threshold
		if r.Kind == AlertKindAnomaly {
			bound = r.ZScore
		}
		trans := func(from, to string) {
			out = append(out, AlertTransition{
				RuleID: r.ID, RuleName: r.Name, Metric: r.Metric, Severity: r.Severity,
				From: from, To: to, At: now, Value: value, Threshold: bound,
				Detail: detail, EpisodeID: st.episodeID,
			})
		}
		switch {
		case breached && st.state == "":
			st.state, st.since = AlertStatePending, now
			trans("", AlertStatePending)
			if r.For <= 0 {
				st.state, st.since = AlertStateFiring, now
				trans(AlertStatePending, AlertStateFiring)
			}
		case breached && st.state == AlertStatePending:
			if now.Sub(st.since) >= r.For {
				st.state, st.since = AlertStateFiring, now
				trans(AlertStatePending, AlertStateFiring)
			}
		case !breached && (st.state == AlertStatePending || st.state == AlertStateFiring):
			trans(st.state, AlertStateResolved)
			*st = ruleState{value: value}
		}
	}
	as.updateGauges()
	mAlertTransitions.Add(int64(len(out)))
	return out
}

// updateGauges publishes the pending/firing counts; callers hold as.mu.
func (as *AlertSet) updateGauges() {
	var pending, firing int64
	for _, st := range as.states {
		switch st.state {
		case AlertStatePending:
			pending++
		case AlertStateFiring:
			firing++
		}
	}
	gAlertPending.Set(pending)
	gAlertFiring.Set(firing)
}

// Snapshot reports every rule's live state, sorted by rule id.
func (as *AlertSet) Snapshot() []AlertStatus {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]AlertStatus, 0, len(as.rules))
	for _, r := range as.rules {
		s := AlertStatus{RuleID: r.ID, RuleName: r.Name, Metric: r.Metric,
			Severity: r.Severity, State: AlertStateOK}
		if st := as.states[r.ID]; st != nil {
			s.Value = st.value
			s.EpisodeID = st.episodeID
			if st.state != "" {
				s.State = st.state
				s.Since = st.since
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RuleID < out[j].RuleID })
	return out
}

// FiringCount returns how many rules are currently firing.
func (as *AlertSet) FiringCount() int {
	as.mu.Lock()
	defer as.mu.Unlock()
	n := 0
	for _, st := range as.states {
		if st.state == AlertStateFiring {
			n++
		}
	}
	return n
}

// evalRule applies one rule's predicate to the history. A metric the ring
// has never seen (or an empty window) evaluates as not breached: absence
// of evidence resolves, it does not fire.
func evalRule(h *History, r AlertRule) (breached bool, value float64, detail string) {
	window := r.Window
	if window <= 0 {
		window = DefaultAlertWindow
	}
	if r.Kind == AlertKindAnomaly {
		return evalAnomaly(h, r, window)
	}
	st, ok := h.Window(r.Metric, window)
	if !ok {
		return false, 0, "no data"
	}
	agg := r.Agg
	if agg == "" {
		if st.Kind == "gauge" {
			agg = "last"
		} else {
			agg = "rate"
		}
	}
	switch agg {
	case "rate":
		value = st.RatePerSec
	case "avg":
		value = st.Avg
	case "ewma":
		value = st.EWMA
	case "p95":
		value = float64(st.P95)
	default: // "last"
		value = st.Last
	}
	if r.Op == "lt" {
		breached = value < r.Threshold
	} else {
		breached = value > r.Threshold
	}
	return breached, value, fmt.Sprintf("%s(%s)=%.4g over %s", agg, r.Metric, value, window)
}

// evalAnomaly flags the newest observation when it deviates from the mean
// of the window's earlier observations by more than ZScore standard
// deviations. Fewer than 4 observations, or a flat series, never breach.
func evalAnomaly(h *History, r AlertRule, window time.Duration) (bool, float64, string) {
	_, pts, ok := h.Series(r.Metric, window)
	if !ok || len(pts) < 4 {
		return false, 0, "insufficient data"
	}
	last := pts[len(pts)-1].Value
	base := pts[:len(pts)-1]
	var sum float64
	for _, p := range base {
		sum += p.Value
	}
	mean := sum / float64(len(base))
	var varSum float64
	for _, p := range base {
		d := p.Value - mean
		varSum += d * d
	}
	std := math.Sqrt(varSum / float64(len(base)))
	if std == 0 {
		return false, last, "flat series"
	}
	z := math.Abs(last-mean) / std
	return z > r.ZScore, last,
		fmt.Sprintf("z=%.2f (last=%.4g mean=%.4g std=%.4g over %s)", z, last, mean, std, window)
}
