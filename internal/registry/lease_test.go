package registry

import (
	"context"
	"errors"
	"testing"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/ogsi"
)

// leaseClock is a settable time source for lease tests.
type leaseClock struct{ t time.Time }

func (c *leaseClock) now() time.Time          { return c.t }
func (c *leaseClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// leased returns a registry on a fake clock with one organization.
func leased(t *testing.T) (*Registry, *leaseClock) {
	t.Helper()
	clock := &leaseClock{t: time.Unix(1000, 0)}
	r := New()
	r.now = clock.now
	if err := r.PublishOrganization(Organization{Name: "PSU"}); err != nil {
		t.Fatal(err)
	}
	return r, clock
}

func names(svcs []ServiceEntry) []string {
	var out []string
	for _, e := range svcs {
		out = append(out, e.Organization+"/"+e.Name)
	}
	return out
}

// TestLeaseExpiry: an entry that is not republished within its lease is
// gone from every read, and one that is republished stays.
func TestLeaseExpiry(t *testing.T) {
	r, clock := leased(t)
	stale := ServiceEntry{Organization: "PSU", Name: "HPL", FactoryHandle: factoryHandle("A")}
	kept := ServiceEntry{Organization: "PSU", Name: "RMA", FactoryHandle: factoryHandle("B")}
	for _, e := range []ServiceEntry{stale, kept} {
		if err := r.PublishService(e); err != nil {
			t.Fatal(err)
		}
	}
	clock.advance(serviceLease * 2 / 3)
	if err := r.PublishService(kept); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	clock.advance(serviceLease * 2 / 3)

	svcs, err := r.Services("PSU")
	if err != nil || len(svcs) != 1 || svcs[0] != kept {
		t.Errorf("Services after one lease: %v, %v; want only the refreshed %s", names(svcs), err, kept.Name)
	}
	if all := r.AllServices(); len(all) != 1 || all[0] != kept {
		t.Errorf("AllServices after one lease: %v", names(all))
	}
	if got := r.ServiceData()["serviceCount"]; got[0] != "1" {
		t.Errorf("serviceCount = %v, want 1", got)
	}
	restored, err := Restore(mustSnapshot(t, r))
	if err != nil || len(restored.AllServices()) != 1 {
		t.Errorf("snapshot carried a lapsed entry: %v, %v", restored.AllServices(), err)
	}
	if err := r.RemoveService("PSU", stale.Name); !errors.Is(err, ErrNoSuchService) {
		t.Errorf("removing a lapsed entry: %v, want ErrNoSuchService", err)
	}

	clock.advance(serviceLease)
	if all := r.AllServices(); len(all) != 0 {
		t.Errorf("AllServices after the refreshed lease lapsed: %v", names(all))
	}
	// Organizations are not leased.
	if orgs := r.FindOrganizations(""); len(orgs) != 1 {
		t.Errorf("organizations after every lease lapsed: %+v", orgs)
	}
}

// TestRepublishRefreshesLease: an identical republish succeeds and
// restarts the lease from the time of the republish.
func TestRepublishRefreshesLease(t *testing.T) {
	r, clock := leased(t)
	e := ServiceEntry{Organization: "PSU", Name: "HPL", FactoryHandle: factoryHandle("A")}
	if err := r.PublishService(e); err != nil {
		t.Fatal(err)
	}
	clock.advance(serviceLease - time.Second)
	if err := r.PublishService(e); err != nil {
		t.Fatalf("identical republish: %v", err)
	}
	clock.advance(serviceLease - time.Second)
	if all := r.AllServices(); len(all) != 1 {
		t.Fatalf("refreshed entry lapsed on its first lease: %v", names(all))
	}
	clock.advance(2 * time.Second)
	if all := r.AllServices(); len(all) != 0 {
		t.Errorf("entry outlived its refreshed lease: %v", names(all))
	}
}

// TestDifferentHandleWaitsForLease: a second factory handle under a live
// name is a duplicate; once the first lease lapses it takes the name over
// (a restarted site rejoining on a new port).
func TestDifferentHandleWaitsForLease(t *testing.T) {
	r, clock := leased(t)
	old := ServiceEntry{Organization: "PSU", Name: "HPL", FactoryHandle: factoryHandle("A")}
	restarted := ServiceEntry{Organization: "PSU", Name: "HPL", FactoryHandle: factoryHandle("B")}
	if err := r.PublishService(old); err != nil {
		t.Fatal(err)
	}
	clock.advance(serviceLease - time.Second)
	if err := r.PublishService(restarted); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("different handle under a live lease: %v, want ErrDuplicate", err)
	}
	clock.advance(time.Second)
	if err := r.PublishService(restarted); err != nil {
		t.Fatalf("different handle after the lease lapsed: %v", err)
	}
	if svcs, _ := r.Services("PSU"); len(svcs) != 1 || svcs[0] != restarted {
		t.Errorf("Services = %+v, want the new handle only", svcs)
	}
}

// TestRestoreGivesFreshLeases: restored entries are leased from the time
// of the restore, not from their original publish (which, on the fake
// clock, lapsed decades ago).
func TestRestoreGivesFreshLeases(t *testing.T) {
	r, _ := leased(t)
	if err := r.PublishService(ServiceEntry{Organization: "PSU", Name: "HPL", FactoryHandle: factoryHandle("A")}); err != nil {
		t.Fatal(err)
	}
	data := mustSnapshot(t, r)
	before := time.Now()
	got, err := Restore(data)
	after := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	got.now = func() time.Time { return before.Add(serviceLease - time.Millisecond) }
	if all := got.AllServices(); len(all) != 1 {
		t.Errorf("restored entry lapsed before one lease from the restore: %v", names(all))
	}
	got.now = func() time.Time { return after.Add(serviceLease) }
	if all := got.AllServices(); len(all) != 0 {
		t.Errorf("restored entry outlived one lease from the restore: %v", names(all))
	}
}

func mustSnapshot(t *testing.T, r *Registry) []byte {
	t.Helper()
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestKeepPublishedRemovesOnCancel: KeepPublished lists the entry for as
// long as its context lives, retries a failed publish on its next tick,
// and removes the entry when cancelled.
func TestKeepPublishedRemovesOnCancel(t *testing.T) {
	c := container.New(ogsi.NewHosting("x:0"), container.Options{})
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := New()
	if _, err := Deploy(c.Hosting(), reg); err != nil {
		t.Fatal(err)
	}
	pub := Connect(c.Host())
	e := ServiceEntry{Organization: "PSU", Name: "HPL", FactoryHandle: factoryHandle("Application")}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// The organization does not exist yet, so the first publish fails.
	go func() { done <- pub.keepPublished(ctx, e, 5*time.Millisecond) }()
	time.Sleep(10 * time.Millisecond)
	if err := pub.PublishOrganization(Organization{Name: "PSU"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(reg.AllServices()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("KeepPublished never published the entry after a failed first publish")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("KeepPublished: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("KeepPublished did not return after cancel")
	}
	if all := reg.AllServices(); len(all) != 0 {
		t.Errorf("entry still listed after KeepPublished was cancelled: %v", names(all))
	}
}
