package reldb

import (
	"fmt"
	"strings"
)

// Column describes one column of a table schema.
type Column struct {
	Name          string
	Type          Type
	NotNull       bool
	Default       Value // applied when an INSERT omits the column
	AutoIncrement bool  // only valid on a BIGINT primary-key column
}

// ForeignKey declares that a column references the primary key of another
// table. Inserts and updates verify the referenced row exists.
type ForeignKey struct {
	Column    string // local column name
	RefTable  string
	RefColumn string
}

// Schema is the definition of a table: its name, ordered columns, primary
// key and foreign keys. Column order is the row layout.
type Schema struct {
	Name        string
	Columns     []Column
	PrimaryKey  string // column name; "" means no primary key
	ForeignKeys []ForeignKey
}

// ColumnIndex returns the position of the named column, or -1. Column names
// are case-insensitive, matching the SQL layer.
func (s *Schema) ColumnIndex(name string) int {
	for i := range s.Columns {
		if strings.EqualFold(s.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the named column definition, or nil.
func (s *Schema) Column(name string) *Column {
	if i := s.ColumnIndex(name); i >= 0 {
		return &s.Columns[i]
	}
	return nil
}

// ColumnNames returns the column names in row order.
func (s *Schema) ColumnNames() []string {
	names := make([]string, len(s.Columns))
	for i := range s.Columns {
		names[i] = s.Columns[i].Name
	}
	return names
}

// validate checks the schema for internal consistency. A schema with no
// columns passes: dropping a table's last column leaves one, and a
// snapshot may hold it.
func (s *Schema) validate() error {
	if s.Name == "" {
		return fmt.Errorf("reldb: table has no name")
	}
	seen := make(map[string]bool, len(s.Columns))
	for i := range s.Columns {
		c := &s.Columns[i]
		lower := strings.ToLower(c.Name)
		if c.Name == "" {
			return fmt.Errorf("reldb: table %s has an unnamed column", s.Name)
		}
		if seen[lower] {
			return fmt.Errorf("reldb: table %s: duplicate column %s", s.Name, c.Name)
		}
		seen[lower] = true
		if c.Type == TNull {
			return fmt.Errorf("reldb: table %s: column %s has no type", s.Name, c.Name)
		}
		if c.AutoIncrement && c.Type != TInt {
			return fmt.Errorf("reldb: table %s: auto-increment column %s must be BIGINT", s.Name, c.Name)
		}
		if !c.Default.IsNull() {
			if _, err := Coerce(c.Default, c.Type); err != nil {
				return fmt.Errorf("reldb: table %s: column %s: bad default: %v", s.Name, c.Name, err)
			}
		}
	}
	if s.PrimaryKey != "" && s.ColumnIndex(s.PrimaryKey) < 0 {
		return fmt.Errorf("reldb: table %s: primary key %s is not a column", s.Name, s.PrimaryKey)
	}
	for _, fk := range s.ForeignKeys {
		if s.ColumnIndex(fk.Column) < 0 {
			return fmt.Errorf("reldb: table %s: foreign key on unknown column %s", s.Name, fk.Column)
		}
	}
	return nil
}

// clone returns a deep copy of the schema.
func (s *Schema) clone() *Schema {
	c := &Schema{Name: s.Name, PrimaryKey: s.PrimaryKey}
	c.Columns = append([]Column(nil), s.Columns...)
	c.ForeignKeys = append([]ForeignKey(nil), s.ForeignKeys...)
	return c
}
