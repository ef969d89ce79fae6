package registry

import (
	"encoding/json"
	"fmt"
	"os"
)

// snapshot is the JSON persistence schema. UDDI registries are durable
// directories; this gives the pperfgrid-registry process restart survival
// without a database.
type snapshot struct {
	Version       int            `json:"version"`
	Organizations []Organization `json:"organizations"`
	Services      []ServiceEntry `json:"services"`
}

const snapshotVersion = 1

// Snapshot serializes the registry's organizations and live services as
// JSON. Leases are not saved.
func (r *Registry) Snapshot() ([]byte, error) {
	s := snapshot{Version: snapshotVersion}
	s.Organizations = r.FindOrganizations("")
	s.Services = r.AllServices()
	return json.MarshalIndent(s, "", "  ")
}

// Restore builds a registry from a Snapshot document. Every restored
// service gets a fresh lease from the time of the restore, so a site that
// died while the registry was down drops out one lease after the restart.
func Restore(data []byte) (*Registry, error) {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("registry: restore: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("registry: restore: unsupported snapshot version %d", s.Version)
	}
	r := New()
	for _, o := range s.Organizations {
		if err := r.PublishOrganization(o); err != nil {
			return nil, fmt.Errorf("registry: restore organization %q: %w", o.Name, err)
		}
	}
	for _, e := range s.Services {
		if err := r.PublishService(e); err != nil {
			return nil, fmt.Errorf("registry: restore service %q: %w", e.Name, err)
		}
	}
	return r, nil
}

// SaveFile writes a snapshot atomically (write-temp-then-rename).
func (r *Registry) SaveFile(path string) error {
	data, err := r.Snapshot()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile restores a registry from a snapshot file. A missing file yields
// an empty registry, so first runs need no special casing.
func LoadFile(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return New(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: load: %w", err)
	}
	return Restore(data)
}
