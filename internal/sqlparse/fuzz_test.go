package sqlparse

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// seedCorpus reads testdata/sql_seed.txt — one Go-quoted literal per line,
// regenerated with `perfdmf-vet -dump-sql` — so the fuzzer starts from
// every SQL statement the repo actually issues.
func seedCorpus(f *testing.F) {
	file, err := os.Open("testdata/sql_seed.txt")
	if err != nil {
		f.Fatalf("seed corpus: %v (regenerate with perfdmf-vet -dump-sql)", err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		sql, err := strconv.Unquote(line)
		if err != nil {
			f.Fatalf("seed corpus: bad line %q: %v", line, err)
		}
		f.Add(sql)
		n++
	}
	if err := sc.Err(); err != nil {
		f.Fatalf("seed corpus: %v", err)
	}
	if n == 0 {
		f.Fatal("seed corpus is empty")
	}
}

// FuzzParse asserts the parser is total: any input either parses or
// returns an error — it must not panic, hang, or let an un-parseable
// statement through as a nil Statement.
func FuzzParse(f *testing.F) {
	seedCorpus(f)
	f.Add("SELECT 1")
	f.Add("INSERT INTO t (a) VALUES (?); DELETE FROM t WHERE a = ?")
	f.Add("SELECT 'unterminated")
	f.Add("-- just a comment\n")
	// Catalog probes an operator types by hand; no code path issues them
	// verbatim, so -dump-sql does not list them.
	f.Add("SELECT sample_rate FROM OBS_TELEMETRY")
	f.Add("SELECT COUNT(*) FROM PERFDMF_SPANS")
	// The profile index as a literal statement: the schema builds its
	// CREATE INDEX statements from parts, so -dump-sql does not list it.
	f.Add("CREATE INDEX ix_ilp_event ON interval_location_profile (interval_event)")
	// The application/experiment/trial list statements: the session builds
	// them from the table and its parent column, so -dump-sql does not list
	// them.
	f.Add("SELECT * FROM application ORDER BY id")
	f.Add("SELECT * FROM experiment WHERE application = ? ORDER BY id")
	f.Add("SELECT * FROM experiment ORDER BY id")
	f.Add("SELECT * FROM trial WHERE experiment = ? ORDER BY id")
	f.Add("SELECT * FROM trial ORDER BY id")
	f.Fuzz(func(t *testing.T, src string) {
		if st, err := Parse(src); err == nil && st == nil {
			t.Fatalf("Parse(%q) returned nil statement and nil error", src)
		}
		sts, err := ParseScript(src)
		if err != nil {
			return
		}
		for i, st := range sts {
			if st == nil {
				t.Fatalf("ParseScript(%q) statement %d is nil with nil error", src, i)
			}
		}
	})
}
