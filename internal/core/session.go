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

var (
	appFixed   = map[string]bool{"id": true, "name": true}
	expFixed   = map[string]bool{"id": true, "name": true, "application": true}
	trialFixed = map[string]bool{"id": true, "name": true, "experiment": true, "metadata": true}
)

func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// --- applications ---

// ApplicationList returns every application, in id order.
func (s *DataSession) ApplicationList() ([]*Application, error) {
	rows, err := s.conn.Query("SELECT * FROM application ORDER BY id")
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	idPos := colIndex(rows.Columns(), "id")
	namePos := colIndex(rows.Columns(), "name")
	var out []*Application
	for rows.Next() {
		a := &Application{Fields: loadFields(rows, appFixed)}
		a.ID, _ = rows.Value(idPos).(int64)
		a.Name, _ = rows.Value(namePos).(string)
		out = append(out, a)
	}
	return out, rows.Err()
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
	if a.Name == "" {
		return fmt.Errorf("core: application needs a name")
	}
	cols, vals, err := flexColumns(s.conn, "application", appFixed, a.Fields)
	if err != nil {
		return err
	}
	if a.ID == 0 {
		names := append([]string{"name"}, cols...)
		args := append([]any{a.Name}, vals...)
		res, err := s.conn.Exec(insertSQL("application", names), args...)
		if err != nil {
			return err
		}
		a.ID = res.LastInsertID
		return nil
	}
	names := append([]string{"name"}, cols...)
	args := append([]any{a.Name}, vals...)
	args = append(args, a.ID)
	_, err = s.conn.Exec(updateSQL("application", names), args...)
	return err
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
	var (
		rows godbc.Rows
		err  error
	)
	if s.app != nil {
		rows, err = s.conn.Query("SELECT * FROM experiment WHERE application = ? ORDER BY id", s.app.ID)
	} else {
		rows, err = s.conn.Query("SELECT * FROM experiment ORDER BY id")
	}
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	idPos := colIndex(rows.Columns(), "id")
	namePos := colIndex(rows.Columns(), "name")
	appPos := colIndex(rows.Columns(), "application")
	var out []*Experiment
	for rows.Next() {
		e := &Experiment{Fields: loadFields(rows, expFixed)}
		e.ID, _ = rows.Value(idPos).(int64)
		e.Name, _ = rows.Value(namePos).(string)
		e.ApplicationID, _ = rows.Value(appPos).(int64)
		out = append(out, e)
	}
	return out, rows.Err()
}

// SaveExperiment inserts or updates an experiment row.
func (s *DataSession) SaveExperiment(e *Experiment) error {
	if e.Name == "" {
		return fmt.Errorf("core: experiment needs a name")
	}
	if e.ApplicationID == 0 {
		if s.app == nil {
			return fmt.Errorf("core: experiment needs an application (set one or select one)")
		}
		e.ApplicationID = s.app.ID
	}
	cols, vals, err := flexColumns(s.conn, "experiment", expFixed, e.Fields)
	if err != nil {
		return err
	}
	if e.ID == 0 {
		names := append([]string{"name", "application"}, cols...)
		args := append([]any{e.Name, e.ApplicationID}, vals...)
		res, err := s.conn.Exec(insertSQL("experiment", names), args...)
		if err != nil {
			return err
		}
		e.ID = res.LastInsertID
		return nil
	}
	names := append([]string{"name", "application"}, cols...)
	args := append([]any{e.Name, e.ApplicationID}, vals...)
	args = append(args, e.ID)
	_, err = s.conn.Exec(updateSQL("experiment", names), args...)
	return err
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
	var (
		rows godbc.Rows
		err  error
	)
	if s.exp != nil {
		rows, err = s.conn.Query("SELECT * FROM trial WHERE experiment = ? ORDER BY id", s.exp.ID)
	} else {
		rows, err = s.conn.Query("SELECT * FROM trial ORDER BY id")
	}
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	idPos := colIndex(rows.Columns(), "id")
	namePos := colIndex(rows.Columns(), "name")
	expPos := colIndex(rows.Columns(), "experiment")
	var out []*Trial
	for rows.Next() {
		t := &Trial{Fields: loadFields(rows, trialFixed)}
		t.ID, _ = rows.Value(idPos).(int64)
		t.Name, _ = rows.Value(namePos).(string)
		t.ExperimentID, _ = rows.Value(expPos).(int64)
		out = append(out, t)
	}
	return out, rows.Err()
}

// SaveTrial inserts or updates a trial row (metadata column excluded; it is
// managed by UploadTrial).
func (s *DataSession) SaveTrial(t *Trial) error {
	if t.Name == "" {
		return fmt.Errorf("core: trial needs a name")
	}
	if t.ExperimentID == 0 {
		if s.exp == nil {
			return fmt.Errorf("core: trial needs an experiment (set one or select one)")
		}
		t.ExperimentID = s.exp.ID
	}
	cols, vals, err := flexColumns(s.conn, "trial", trialFixed, t.Fields)
	if err != nil {
		return err
	}
	if t.ID == 0 {
		names := append([]string{"name", "experiment"}, cols...)
		args := append([]any{t.Name, t.ExperimentID}, vals...)
		res, err := s.conn.Exec(insertSQL("trial", names), args...)
		if err != nil {
			return err
		}
		t.ID = res.LastInsertID
		return nil
	}
	names := append([]string{"name", "experiment"}, cols...)
	args := append([]any{t.Name, t.ExperimentID}, vals...)
	args = append(args, t.ID)
	_, err = s.conn.Exec(updateSQL("trial", names), args...)
	return err
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
	trialID, err := s.currentTrialID()
	if err != nil {
		return nil, err
	}
	rows, err := s.conn.Query(
		"SELECT id, name, group_name FROM interval_event WHERE trial = ? ORDER BY id", trialID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []*IntervalEvent
	for rows.Next() {
		e := &IntervalEvent{TrialID: trialID}
		var group any
		if err := rows.Scan(&e.ID, &e.Name, &group); err != nil {
			return nil, err
		}
		if g, ok := group.(string); ok {
			e.Group = g
		}
		out = append(out, e)
	}
	return out, rows.Err()
}

// AtomicEventList returns the selected trial's atomic events in id order.
func (s *DataSession) AtomicEventList() ([]*AtomicEvent, error) {
	trialID, err := s.currentTrialID()
	if err != nil {
		return nil, err
	}
	rows, err := s.conn.Query(
		"SELECT id, name, group_name FROM atomic_event WHERE trial = ? ORDER BY id", trialID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []*AtomicEvent
	for rows.Next() {
		e := &AtomicEvent{TrialID: trialID}
		var group any
		if err := rows.Scan(&e.ID, &e.Name, &group); err != nil {
			return nil, err
		}
		if g, ok := group.(string); ok {
			e.Group = g
		}
		out = append(out, e)
	}
	return out, rows.Err()
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

// insertSQL builds "INSERT INTO table (c1, c2) VALUES (?, ?)".
func insertSQL(table string, cols []string) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" (")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c)
	}
	b.WriteString(") VALUES (")
	for i := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('?')
	}
	b.WriteString(")")
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
