package registry

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func populated(t *testing.T) *Registry {
	t.Helper()
	r := New()
	if err := r.PublishOrganization(Organization{Name: "PSU", Contact: "a@pdx.edu", Description: "Portland State"}); err != nil {
		t.Fatal(err)
	}
	if err := r.PublishOrganization(Organization{Name: "LLNL", Contact: "b@llnl.gov"}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []ServiceEntry{
		{Organization: "PSU", Name: "HPL", Description: "linpack", FactoryHandle: factoryHandle("A")},
		{Organization: "PSU", Name: "SMG98", Description: "traces", FactoryHandle: factoryHandle("B")},
		{Organization: "LLNL", Name: "RMA", FactoryHandle: factoryHandle("C")},
	} {
		if err := r.PublishService(e); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	r := populated(t)
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.FindOrganizations(""), r.FindOrganizations("")) {
		t.Error("organizations differ after restore")
	}
	if !reflect.DeepEqual(got.AllServices(), r.AllServices()) {
		t.Error("services differ after restore")
	}
}

func TestRestoreErrors(t *testing.T) {
	if _, err := Restore([]byte("not json")); err == nil {
		t.Error("bad json: want error")
	}
	if _, err := Restore([]byte(`{"version": 99}`)); err == nil {
		t.Error("bad version: want error")
	}
	// A snapshot with a service referencing a missing organization is
	// rejected rather than silently dropped.
	bad := `{"version":1,"services":[{"Organization":"ghost","Name":"X","FactoryHandle":"` + factoryHandle("A") + `"}]}`
	if _, err := Restore([]byte(bad)); err == nil {
		t.Error("orphan service: want error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	r := populated(t)
	path := filepath.Join(t.TempDir(), "registry.json")
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Atomic write leaves no temp file behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.AllServices(), r.AllServices()) {
		t.Error("services differ after file round trip")
	}
}

func TestLoadFileMissingYieldsEmpty(t *testing.T) {
	r, err := LoadFile(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FindOrganizations("")) != 0 {
		t.Error("missing file did not yield empty registry")
	}
}

func TestLoadFileCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.json")
	if err := os.WriteFile(path, []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("corrupt file: want error")
	}
}

// FuzzRestore feeds arbitrary bytes to Restore: it returns an error or a
// registry, never panics, and a registry it returns snapshots into a
// document that restores to the same organizations and services.
func FuzzRestore(f *testing.F) {
	h := factoryHandle("A")
	f.Add([]byte(`{"version":1,"organizations":[{"Name":"PSU","Contact":"a@pdx.edu","Description":"Portland State"}],` +
		`"services":[{"Organization":"PSU","Name":"HPL","Description":"linpack","FactoryHandle":"` + h + `"}]}`))
	f.Add([]byte(`{"version":1,"organizations":[{"Name":"PSU"}],"services":[` +
		`{"Organization":"PSU","Name":"HPL","FactoryHandle":"` + h + `"},` +
		`{"Organization":"PSU","Name":"HPL","FactoryHandle":"` + factoryHandle("B") + `"}]}`))
	f.Add([]byte(`{"version":1,"organizations":[{"Name":"PSU"},{"Name":"PSU","Contact":"again"}]}`))
	f.Add([]byte(`{"version":1,"organizations":null,"services":null}`))
	f.Add([]byte(`{"version":1,"services":[{"Organization":"ghost","Name":"X","FactoryHandle":"` + h + `"}]}`))
	f.Add([]byte(`{"version":1,"organizations":[{"Name":"a|b"}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Restore(data)
		if err != nil {
			return
		}
		again, err := r.Snapshot()
		if err != nil {
			t.Fatalf("restored registry does not snapshot: %v", err)
		}
		r2, err := Restore(again)
		if err != nil {
			t.Fatalf("snapshot of a restored registry does not restore: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(r2.FindOrganizations(""), r.FindOrganizations("")) {
			t.Fatalf("organizations differ after a second round trip:\n%+v\n%+v", r.FindOrganizations(""), r2.FindOrganizations(""))
		}
		if !reflect.DeepEqual(r2.AllServices(), r.AllServices()) {
			t.Fatalf("services differ after a second round trip:\n%+v\n%+v", r.AllServices(), r2.AllServices())
		}
	})
}
