package core

import (
	"fmt"
	"sort"
	"strings"

	"perfdmf/internal/godbc"
)

// Application, Experiment and Trial mirror the top three schema tables.
// Beyond the fixed columns (ID, Name, and the foreign key), every other
// column — including ones added later with ALTER TABLE — lives in Fields,
// keyed by lower-cased column name. This is the paper's flexible-schema
// mechanism: the column set is discovered from connection metadata at save
// and load time, so "the analysis team is free to organize the performance
// attribute data in any way they like" without code changes.

// Application is one row of the APPLICATION table.
type Application struct {
	ID     int64
	Name   string
	Fields map[string]any
}

// Experiment is one row of the EXPERIMENT table.
type Experiment struct {
	ID            int64
	ApplicationID int64
	Name          string
	Fields        map[string]any
}

// Trial is one row of the TRIAL table. The profile statistics columns
// (node_count etc.) are stored in Fields like any other flexible column;
// convenience accessors cover the common ones.
type Trial struct {
	ID           int64
	ExperimentID int64
	Name         string
	Fields       map[string]any
}

// NodeCount returns the trial's node_count column (0 when absent).
func (t *Trial) NodeCount() int64 { return fieldInt(t.Fields, "node_count") }

// ContextsPerNode returns the trial's contexts_per_node column.
func (t *Trial) ContextsPerNode() int64 { return fieldInt(t.Fields, "contexts_per_node") }

// MaxThreadsPerContext returns the trial's max_threads_per_context column.
func (t *Trial) MaxThreadsPerContext() int64 { return fieldInt(t.Fields, "max_threads_per_context") }

func fieldInt(fields map[string]any, key string) int64 {
	switch v := fields[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(v)
	}
	return 0
}

// Metric is one row of the METRIC table.
type Metric struct {
	ID      int64
	TrialID int64
	Name    string
	Derived bool
}

// IntervalEvent is one row of the INTERVAL_EVENT table.
type IntervalEvent struct {
	ID      int64
	TrialID int64
	Name    string
	Group   string
}

// AtomicEvent is one row of the ATOMIC_EVENT table.
type AtomicEvent struct {
	ID      int64
	TrialID int64
	Name    string
	Group   string
}

// objectTable describes one of the flexible-schema tables: the column
// referencing its parent row ("" for application), and its fixed columns,
// which never appear in Fields.
type objectTable struct {
	name   string
	parent string
	fixed  map[string]bool
}

var (
	appTable   = objectTable{"application", "", map[string]bool{"id": true, "name": true}}
	expTable   = objectTable{"experiment", "application", map[string]bool{"id": true, "name": true, "application": true}}
	trialTable = objectTable{"trial", "experiment", map[string]bool{"id": true, "name": true, "experiment": true, "metadata": true}}
)

// objectRow is one row of a flexible-schema table.
type objectRow struct {
	id, parent int64
	name       string
	fields     map[string]any
}

// listObjects returns the table's rows in id order, each built by mk; with
// a parent id, only that parent's rows.
func listObjects[T any](s *DataSession, t objectTable, parent *int64, mk func(objectRow) T) ([]T, error) {
	q, args := "SELECT * FROM "+t.name, []any(nil)
	if parent != nil {
		q += " WHERE " + t.parent + " = ?"
		args = append(args, *parent)
	}
	rows, err := s.conn.Query(q+" ORDER BY id", args...)
	var out []T
	err = forEach(rows, err, func() error {
		r := objectRow{fields: make(map[string]any)}
		for i, col := range rows.Columns() {
			v := rows.Value(i)
			switch lower := strings.ToLower(col); {
			case lower == "id":
				r.id, _ = v.(int64)
			case lower == "name":
				r.name, _ = v.(string)
			case lower == t.parent:
				r.parent, _ = v.(int64)
			case t.fixed[lower]:
				// trial.metadata, which UploadTrial manages.
			case v != nil:
				r.fields[lower] = v
			}
		}
		out = append(out, mk(r))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// saveObject inserts a row into the table when *id is zero, setting *id,
// and otherwise updates row *id: its name, its parent column, and the
// flexible fields. A row of a child table whose *parent is zero joins the
// selected parent.
func (s *DataSession) saveObject(t objectTable, id *int64, name string, parent, selected *int64, fields map[string]any) error {
	if name == "" {
		return fmt.Errorf("core: %s needs a name", t.name)
	}
	cols, args := []string{"name"}, []any{name}
	if t.parent != "" {
		if *parent == 0 {
			if selected == nil {
				return fmt.Errorf("core: %s needs an %s (set one or select one)", t.name, t.parent)
			}
			*parent = *selected
		}
		cols, args = append(cols, t.parent), append(args, *parent)
	}
	flex, vals, err := flexColumns(s.conn, t.name, t.fixed, fields)
	if err != nil {
		return err
	}
	cols, args = append(cols, flex...), append(args, vals...)
	if *id != 0 {
		_, err = s.conn.Exec(updateSQL(t.name, cols), append(args, *id)...)
		return err
	}
	res, err := s.conn.Exec(insertSQL(t.name, cols, 1), args...)
	if err != nil {
		return err
	}
	*id = res.LastInsertID
	return nil
}

// flexColumns returns the table's column names (lower-cased) other than
// the fixed id column, split into those the caller provided values for.
func flexColumns(conn godbc.Conn, table string, fixed map[string]bool, fields map[string]any) (cols []string, vals []any, err error) {
	infos, err := conn.MetaData().Columns(table)
	if err != nil {
		return nil, nil, err
	}
	known := make(map[string]bool, len(infos))
	for _, ci := range infos {
		known[strings.ToLower(ci.Name)] = true
	}
	for key := range fields {
		if !known[strings.ToLower(key)] {
			return nil, nil, fmt.Errorf("core: table %s has no column %q (add it with ALTER TABLE first)", table, key)
		}
	}
	keys := make([]string, 0, len(fields))
	for key := range fields {
		lower := strings.ToLower(key)
		if fixed[lower] {
			continue
		}
		keys = append(keys, lower)
	}
	sort.Strings(keys)
	for _, key := range keys {
		cols = append(cols, key)
		vals = append(vals, fields[key])
	}
	return cols, vals, nil
}
