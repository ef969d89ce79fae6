package minidb

import "testing"

// FuzzParseStatement feeds arbitrary text to the SQL lexer and parser,
// then runs the same text through Query and through Exec, each against a
// fresh in-memory database holding a fact table (indexed both ways) and a
// dimension table. Every step must end in an error or a result, never a
// panic. The seeds are one statement of each kind the dialect has.
func FuzzParseStatement(f *testing.F) {
	for _, sql := range []string{
		"CREATE TABLE x (id INT, name VARCHAR(8), v DOUBLE PRECISION)",
		"CREATE ORDERED INDEX t_value ON t (value)",
		"INSERT INTO t (execid, seq, value) VALUES ('e3', 3, -1.5e2), ('e4', NULL, 0.25)",
		"UPDATE t SET value = 2.5, seq = 7 WHERE seq > 1",
		"DELETE FROM t WHERE execid = 'e1' OR value IS NULL",
		"SELECT t.execid, d.name FROM t INNER JOIN d ON t.execid = d.execid WHERE t.seq >= 1 ORDER BY t.seq DESC LIMIT 5",
		"SELECT COUNT(*), COUNT(DISTINCT execid), SUM(value), MIN(seq), MAX(seq), AVG(value) FROM t WHERE execid != 'e9'",
		"SELECT DISTINCT execid FROM t WHERE execid IN ('e1', 'e2') AND NOT value < 0",
		"SELECT seq AS s FROM t WHERE seq BETWEEN 1 AND 2 AND execid LIKE 'e%'",
		"SELECT value FROM t WHERE execid = ? AND seq < ?;",
		"DROP TABLE d",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		_, _ = ParseStatement(sql)
		if rs, err := fuzzDatabase(t).Query(sql); err == nil && rs == nil {
			t.Fatal("Query returned neither rows nor an error")
		}
		_, _ = fuzzDatabase(t).Exec(sql)
	})
}

// fuzzDatabase builds the two-table database FuzzParseStatement runs
// statements against.
func fuzzDatabase(t *testing.T) *Database {
	db := NewDatabase()
	for _, sql := range []string{
		"CREATE TABLE t (execid TEXT, seq INT, value FLOAT)",
		"CREATE TABLE d (execid TEXT, name TEXT)",
		"CREATE INDEX t_execid ON t (execid)",
		"CREATE ORDERED INDEX t_seq ON t (seq)",
		"INSERT INTO t VALUES ('e1', 1, 0.5), ('e2', 2, NULL), ('e2', NULL, 3.0)",
		"INSERT INTO d VALUES ('e1', 'alpha'), ('e2', 'beta')",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return db
}
