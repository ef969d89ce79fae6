package minidb

import (
	"math"
	"testing"
)

// FuzzApplyRecord feeds arbitrary bytes to WAL replay, the last decoder of
// on-disk bytes without a target of its own. On a fresh disk engine it
// applies a CREATE and then the fuzzed record (a checkpoint, which replay
// accepts only as the first record of a log, is applied alone), builds the
// index declarations the record returned, and runs an ORDER BY, a WHERE
// and an aggregate SELECT over every table. Each step must end in an error
// or a state, never a panic. Seeds are the output of every record encoder.
func FuzzApplyRecord(f *testing.F) {
	cols := []Column{{Name: "execid", Type: TypeText}, {Name: "seq", Type: TypeInt}, {Name: "value", Type: TypeFloat}}
	rows := []Row{
		{Text("e1"), Int(1), Float(0.5)},
		{Null(), Int(math.MinInt64), Float(math.NaN())},
		{Text("é世"), Null(), Float(math.Inf(1))},
	}
	snap := NewDatabase()
	for _, sql := range []string{
		"CREATE TABLE t (execid TEXT, seq INT, value FLOAT)",
		"CREATE INDEX t_execid ON t (execid)",
		"CREATE ORDERED INDEX t_seq ON t (seq)",
	} {
		if _, err := snap.Exec(sql); err != nil {
			f.Fatal(err)
		}
	}
	for _, rec := range [][]byte{
		encCreateTable("u", cols),
		encDropTable("t"),
		encCreateIndex("t", "execid", false),
		encCreateIndex("t", "seq", true),
		encInsert("t", rows),
		encRewrite("t", rows[:1]),
		encSeal("t", 1, vecBlockSize),
		encMerge("t", 1, 1),
		encCheckpoint(snap),
		nil,
	} {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		db, err := Open(Options{Dir: t.TempDir(), DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		e := db.eng
		if len(rec) == 0 || rec[0] != recCheckpoint {
			if _, err := e.applyRecord(encCreateTable("t", cols)); err != nil {
				t.Fatal(err)
			}
		}
		decls, err := e.applyRecord(rec)
		if err != nil {
			return
		}
		if err := e.buildIndexes(decls); err != nil {
			return
		}
		for _, name := range db.TableNames() {
			for _, c := range e.db.tables[name].Columns {
				for _, sql := range []string{
					"SELECT * FROM " + name + " ORDER BY " + c.Name,
					"SELECT * FROM " + name + " WHERE " + c.Name + " = 'e1'",
					"SELECT COUNT(*), MIN(" + c.Name + "), MAX(" + c.Name + "), SUM(" + c.Name + ") FROM " + name,
				} {
					_, _ = db.Query(sql)
				}
			}
		}
	})
}
