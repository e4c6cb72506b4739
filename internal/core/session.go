package core

import (
	"fmt"
	"strings"

	"perfdmf/internal/godbc"
)

// DataSession is the PerfDMF programming interface (paper §4): it wraps a
// database connection, exposes application/experiment/trial lists as
// objects, and scopes subsequent queries to the selected object — "once an
// object is selected, all further query operations are filtered based on
// that particular context".
//
// A DataSession is not safe for concurrent use; open one per goroutine
// (they share the underlying engine).
type DataSession struct {
	conn  godbc.Conn
	app   *Application
	exp   *Experiment
	trial *Trial
}

// Open connects to dsn (e.g. "mem:archive" or "file:/path/to/dir") and
// ensures the PerfDMF schema exists.
func Open(dsn string) (*DataSession, error) {
	conn, err := godbc.Open(dsn)
	if err != nil {
		return nil, err
	}
	if err := CreateSchema(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return &DataSession{conn: conn}, nil
}

// NewSession wraps an existing connection (schema must exist or be
// creatable).
func NewSession(conn godbc.Conn) (*DataSession, error) {
	if err := CreateSchema(conn); err != nil {
		return nil, err
	}
	return &DataSession{conn: conn}, nil
}

// Conn exposes the underlying connection for direct SQL, which the paper
// explicitly supports alongside the object API.
func (s *DataSession) Conn() godbc.Conn { return s.conn }

// Close releases the session's connection.
func (s *DataSession) Close() error { return s.conn.Close() }

// --- applications ---

// ApplicationList returns every application, in id order.
func (s *DataSession) ApplicationList() ([]*Application, error) {
	return listObjects(s, appTable, nil, func(r objectRow) *Application {
		return &Application{ID: r.id, Name: r.name, Fields: r.fields}
	})
}

// FindApplication returns the application with the given name, or nil.
func (s *DataSession) FindApplication(name string) (*Application, error) {
	apps, err := s.ApplicationList()
	if err != nil {
		return nil, err
	}
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, nil
}

// SaveApplication inserts the application when its ID is zero, otherwise
// updates the existing row. Flexible fields are written to their columns.
func (s *DataSession) SaveApplication(a *Application) error {
	return s.saveObject(appTable, &a.ID, a.Name, nil, nil, a.Fields)
}

// SetApplication scopes subsequent experiment queries to app (nil clears
// the filter and everything below it).
func (s *DataSession) SetApplication(app *Application) {
	s.app = app
	s.exp = nil
	s.trial = nil
}

// Application returns the current application filter.
func (s *DataSession) Application() *Application { return s.app }

// --- experiments ---

// ExperimentList returns experiments, restricted to the selected
// application when one is set.
func (s *DataSession) ExperimentList() ([]*Experiment, error) {
	return listObjects(s, expTable, s.appID(), func(r objectRow) *Experiment {
		return &Experiment{ID: r.id, ApplicationID: r.parent, Name: r.name, Fields: r.fields}
	})
}

// SaveExperiment inserts or updates an experiment row. An experiment
// without an ApplicationID joins the selected application.
func (s *DataSession) SaveExperiment(e *Experiment) error {
	return s.saveObject(expTable, &e.ID, e.Name, &e.ApplicationID, s.appID(), e.Fields)
}

// appID returns the selected application's id, or nil.
func (s *DataSession) appID() *int64 {
	if s.app == nil {
		return nil
	}
	return &s.app.ID
}

// SetExperiment scopes subsequent trial queries to exp.
func (s *DataSession) SetExperiment(exp *Experiment) {
	s.exp = exp
	s.trial = nil
}

// Experiment returns the current experiment filter.
func (s *DataSession) Experiment() *Experiment { return s.exp }

// --- trials ---

// TrialList returns trials, restricted to the selected experiment when one
// is set.
func (s *DataSession) TrialList() ([]*Trial, error) {
	return listObjects(s, trialTable, s.expID(), func(r objectRow) *Trial {
		return &Trial{ID: r.id, ExperimentID: r.parent, Name: r.name, Fields: r.fields}
	})
}

// SaveTrial inserts or updates a trial row (metadata column excluded; it is
// managed by UploadTrial). A trial without an ExperimentID joins the
// selected experiment.
func (s *DataSession) SaveTrial(t *Trial) error {
	return s.saveObject(trialTable, &t.ID, t.Name, &t.ExperimentID, s.expID(), t.Fields)
}

// expID returns the selected experiment's id, or nil.
func (s *DataSession) expID() *int64 {
	if s.exp == nil {
		return nil
	}
	return &s.exp.ID
}

// SetTrial scopes subsequent event and metric queries to t.
func (s *DataSession) SetTrial(t *Trial) { s.trial = t }

// Trial returns the current trial filter.
func (s *DataSession) Trial() *Trial { return s.trial }

// currentTrialID returns the selected trial's id, or an error.
func (s *DataSession) currentTrialID() (int64, error) {
	if s.trial == nil {
		return 0, fmt.Errorf("core: no trial selected")
	}
	return s.trial.ID, nil
}

// --- per-trial catalogs ---

// MetricList returns the selected trial's metrics in id order.
func (s *DataSession) MetricList() ([]*Metric, error) {
	trialID, err := s.currentTrialID()
	if err != nil {
		return nil, err
	}
	rows, err := s.conn.Query(
		"SELECT id, name, derived FROM metric WHERE trial = ? ORDER BY id", trialID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []*Metric
	for rows.Next() {
		m := &Metric{TrialID: trialID}
		if err := rows.Scan(&m.ID, &m.Name, &m.Derived); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, rows.Err()
}

// IntervalEventList returns the selected trial's interval events in id
// order.
func (s *DataSession) IntervalEventList() ([]*IntervalEvent, error) {
	return eventList[IntervalEvent](s, "interval_event")
}

// AtomicEventList returns the selected trial's atomic events in id order.
func (s *DataSession) AtomicEventList() ([]*AtomicEvent, error) {
	return eventList[AtomicEvent](s, "atomic_event")
}

// eventList reads the selected trial's interval_event or atomic_event
// catalog, whose rows have one shape, in id order.
func eventList[E IntervalEvent | AtomicEvent](s *DataSession, table string) ([]*E, error) {
	trialID, err := s.currentTrialID()
	if err != nil {
		return nil, err
	}
	rows, err := s.conn.Query("SELECT id, name, group_name FROM "+table+" WHERE trial = ? ORDER BY id", trialID)
	var out []*E
	err = forEach(rows, err, func() error {
		e := IntervalEvent{TrialID: trialID}
		var group any
		if err := rows.Scan(&e.ID, &e.Name, &group); err != nil {
			return err
		}
		e.Group, _ = group.(string)
		ev := E(e)
		out = append(out, &ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeleteTrial removes a trial and all of its dependent rows, children
// first, in one transaction: a delete that fails rolls back the ones before
// it, so a trial row never outlives its events and profiles.
func (s *DataSession) DeleteTrial(trialID int64) error {
	if err := s.conn.Begin(); err != nil {
		return err
	}
	for _, sql := range []string{
		`DELETE FROM interval_location_profile WHERE interval_event IN
			(SELECT id FROM interval_event WHERE trial = ?)`,
		`DELETE FROM interval_total_summary WHERE interval_event IN
			(SELECT id FROM interval_event WHERE trial = ?)`,
		`DELETE FROM interval_mean_summary WHERE interval_event IN
			(SELECT id FROM interval_event WHERE trial = ?)`,
		`DELETE FROM atomic_location_profile WHERE atomic_event IN
			(SELECT id FROM atomic_event WHERE trial = ?)`,
		`DELETE FROM interval_event WHERE trial = ?`,
		`DELETE FROM atomic_event WHERE trial = ?`,
		`DELETE FROM metric WHERE trial = ?`,
		`DELETE FROM analysis_result WHERE trial = ?`,
		`DELETE FROM trial WHERE id = ?`,
	} {
		if _, err := s.conn.Exec(sql, trialID); err != nil {
			s.conn.Rollback() //nolint:errcheck // surfacing the original error
			return err
		}
	}
	if err := s.conn.Commit(); err != nil {
		return err
	}
	if s.trial != nil && s.trial.ID == trialID {
		s.trial = nil
	}
	return nil
}

// insertSQL builds "INSERT INTO table (c1, c2) VALUES (?, ?)" with n rows
// of placeholders.
func insertSQL(table string, cols []string, n int) string {
	row := "(" + strings.TrimSuffix(strings.Repeat("?, ", len(cols)), ", ") + ")"
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" (")
	b.WriteString(strings.Join(cols, ", "))
	b.WriteString(") VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(row)
	}
	return b.String()
}

// updateSQL builds "UPDATE table SET c1 = ?, c2 = ? WHERE id = ?".
func updateSQL(table string, cols []string) string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(table)
	b.WriteString(" SET ")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c)
		b.WriteString(" = ?")
	}
	b.WriteString(" WHERE id = ?")
	return b.String()
}
