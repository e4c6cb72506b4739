package sqlexec

import (
	"testing"

	"perfdmf/internal/reldb"
)

// registeredRows backs the OBS_TEST_REGISTERED table the test registers:
// two rows, the second with a NULL.
var registeredRows = []reldb.Row{
	{reldb.Int(1), reldb.Str("one")},
	{reldb.Int(2), reldb.Null},
}

func init() {
	RegisterCatalog("obs_test_registered", []string{"id", "label"},
		func(*reldb.Tx) ([]reldb.Row, error) { return registeredRows, nil })
}

// TestRegisterCatalog: a table registered from outside the executor answers
// like the built-in catalog — case-insensitive name, filters, aggregates,
// joins against stored tables — and a second registration of the name
// panics.
func TestRegisterCatalog(t *testing.T) {
	db := reldb.NewMemory()
	rs := run(t, db, "SELECT label FROM OBS_TEST_REGISTERED WHERE label IS NOT NULL")
	if len(rs.Rows) != 1 || rs.Rows[0][0].AsString() != "one" {
		t.Fatalf("filtered rows = %v", rs.Rows)
	}
	rs = run(t, db, "SELECT COUNT(*), MAX(id) FROM obs_test_registered")
	if rs.Rows[0][0].AsInt() != 2 || rs.Rows[0][1].AsInt() != 2 {
		t.Fatalf("aggregate = %v", rs.Rows)
	}
	run(t, db, "CREATE TABLE names (id BIGINT, name VARCHAR)")
	run(t, db, "INSERT INTO names (id, name) VALUES (2, 'two')")
	rs = run(t, db, "SELECT r.id, n.name FROM OBS_TEST_REGISTERED r JOIN names n ON n.id = r.id")
	if len(rs.Rows) != 1 || rs.Rows[0][1].AsString() != "two" {
		t.Fatalf("join = %v", rs.Rows)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("registering OBS_TEST_REGISTERED twice did not panic")
		}
	}()
	RegisterCatalog("OBS_TEST_REGISTERED", nil, nil)
}
