// Package sqlcheck is golden-test input for the sqlcheck analyzer: SQL
// literals with syntax errors and placeholder-count mismatches marked
// with // want comments, plus run-time-built SQL and quoted question
// marks that must NOT be reported.
package sqlcheck

import "fmt"

type db struct{}

func (d *db) Query(q string, args ...any) (int, error)   { return 0, nil }
func (d *db) Exec(q string, args ...any) (int, error)    { return 0, nil }
func (d *db) Prepare(q string) (int, error)              { return 0, nil }
func (d *db) Explain(q string, args ...any) (int, error) { return 0, nil }
func (d *db) QueryCatalog(q string) (int, error)         { return 0, nil }

const selByID = "SELECT value FROM metrics WHERE trial = ?"

// --- violations ---

func badSyntax(d *db) {
	d.Query("SELEC value FROM metrics") // want "SQL does not parse"
}

func badScript(d *db) {
	d.Exec("DELETE FROM metrics WHERE; trial = 1") // want "SQL does not parse"
}

func tooFewArgs(d *db) {
	d.Query("SELECT value FROM metrics WHERE trial = ? AND node = ?", 1) // want "has 2 placeholder\(s\) but the call passes 1 argument\(s\)"
}

func tooManyArgs(d *db) {
	d.Exec("INSERT INTO metrics (trial, value) VALUES (?, ?)", 1, 2.5, "extra") // want "has 2 placeholder\(s\) but the call passes 3 argument\(s\)"
}

func badCatalogQuery(d *db) {
	d.QueryCatalog("SELECT active FRM OBS_TELEMETRY") // want "SQL does not parse"
}

func badConst(d *db) {
	d.Query(selByID, 1, 2) // want "has 1 placeholder\(s\) but the call passes 2 argument\(s\)"
}

// --- cases that must stay silent ---

func correct(d *db) {
	d.Query("SELECT value FROM metrics WHERE trial = ?", 7)
	d.Exec("UPDATE metrics SET value = ? WHERE trial = ?", 1.5, 7)
	d.Prepare("INSERT INTO metrics (trial, value) VALUES (?, ?)") // Prepare binds later
	d.QueryCatalog("SELECT active FROM OBS_TELEMETRY")
}

func quotedQuestionMark(d *db) {
	// The ? inside the string literal and the one in the comment are not
	// placeholders; only the trailing one is.
	d.Query("SELECT value FROM metrics WHERE name = 'why?' AND trial = ? -- real?", 7)
}

func constConcat(d *db) {
	d.Query(selByID+" AND node = ?", 1, 2)
}

func runtimeSQL(d *db, table string) {
	// Built at run time: the analyzer cannot know the final text.
	d.Query("SELECT COUNT(*) FROM " + table)
	d.Query(fmt.Sprintf("SELECT value FROM %s", table))
}

func forwardedArgs(d *db, q string, args []any) {
	// Variadic forwarding hides the argument count.
	d.Query("SELECT value FROM metrics WHERE trial = ?", args...)
}

func notSQLMethod(d *db) {
	// Explain is not one of the SQL entry points.
	d.Explain("this is not sql at all")
}

func allowDialect(d *db) {
	// Suppressed: a vendor-specific statement the embedded parser rejects.
	d.Exec("VACUUM metrics") //lint:allow sqlcheck -- vendor statement outside the embedded dialect
}
