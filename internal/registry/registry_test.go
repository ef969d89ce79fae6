package registry

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pperfgrid/internal/container"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
)

func factoryHandle(name string) string {
	return gsh.Persistent("site-a:8080", name+"Factory").String()
}

func TestPublishAndFind(t *testing.T) {
	r := New()
	if err := r.PublishOrganization(Organization{Name: "PSU", Contact: "karavanic@cs.pdx.edu", Description: "Portland State"}); err != nil {
		t.Fatal(err)
	}
	if err := r.PublishOrganization(Organization{Name: "LLNL", Contact: "presta@llnl.gov"}); err != nil {
		t.Fatal(err)
	}
	all := r.FindOrganizations("")
	if len(all) != 2 || all[0].Name != "LLNL" || all[1].Name != "PSU" {
		t.Errorf("FindOrganizations(\"\") = %+v", all)
	}
	got := r.FindOrganizations("psu")
	if len(got) != 1 || got[0].Contact != "karavanic@cs.pdx.edu" {
		t.Errorf("case-insensitive find: %+v", got)
	}
	if len(r.FindOrganizations("zzz")) != 0 {
		t.Error("bogus query matched")
	}
}

func TestRepublishOrganizationUpdates(t *testing.T) {
	r := New()
	_ = r.PublishOrganization(Organization{Name: "PSU", Contact: "old"})
	_ = r.PublishService(ServiceEntry{Organization: "PSU", Name: "HPL", FactoryHandle: factoryHandle("Application")})
	_ = r.PublishOrganization(Organization{Name: "PSU", Contact: "new"})
	got := r.FindOrganizations("PSU")
	if got[0].Contact != "new" {
		t.Errorf("contact = %q", got[0].Contact)
	}
	// Services survive the update.
	svcs, err := r.Services("PSU")
	if err != nil || len(svcs) != 1 {
		t.Errorf("services after republish: %v %v", svcs, err)
	}
}

func TestPublishServiceValidation(t *testing.T) {
	r := New()
	_ = r.PublishOrganization(Organization{Name: "PSU"})
	good := ServiceEntry{Organization: "PSU", Name: "HPL", Description: "linpack", FactoryHandle: factoryHandle("Application")}
	if err := r.PublishService(good); err != nil {
		t.Fatal(err)
	}
	if err := r.PublishService(good); err != nil {
		t.Errorf("identical republish (a lease refresh): got %v", err)
	}
	other := good
	other.FactoryHandle = factoryHandle("Other")
	if err := r.PublishService(other); !errors.Is(err, ErrDuplicate) {
		t.Errorf("different handle under a live name: got %v", err)
	}
	bad := good
	bad.Name = "RMA"
	bad.FactoryHandle = "not-a-handle"
	if err := r.PublishService(bad); err == nil {
		t.Error("bad handle: want error")
	}
	orphan := good
	orphan.Organization = "nobody"
	if err := r.PublishService(orphan); !errors.Is(err, ErrNoSuchOrganization) {
		t.Errorf("orphan: got %v", err)
	}
	empty := good
	empty.Name = ""
	if err := r.PublishService(empty); err == nil {
		t.Error("empty name: want error")
	}
	pipe := good
	pipe.Name = "a|b"
	if err := r.PublishService(pipe); err == nil {
		t.Error("pipe in name: want error")
	}
}

func TestOrganizationNameValidation(t *testing.T) {
	r := New()
	if err := r.PublishOrganization(Organization{Name: ""}); err == nil {
		t.Error("empty org name: want error")
	}
	if err := r.PublishOrganization(Organization{Name: "a|b"}); err == nil {
		t.Error("pipe in org name: want error")
	}
}

func TestRemove(t *testing.T) {
	r := New()
	_ = r.PublishOrganization(Organization{Name: "PSU"})
	_ = r.PublishService(ServiceEntry{Organization: "PSU", Name: "HPL", FactoryHandle: factoryHandle("A")})
	_ = r.PublishService(ServiceEntry{Organization: "PSU", Name: "RMA", FactoryHandle: factoryHandle("B")})

	if err := r.RemoveService("PSU", "HPL"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveService("PSU", "HPL"); !errors.Is(err, ErrNoSuchService) {
		t.Errorf("double remove: %v", err)
	}
	if err := r.RemoveService("nope", "HPL"); !errors.Is(err, ErrNoSuchOrganization) {
		t.Errorf("remove from missing org: %v", err)
	}
	svcs, _ := r.Services("PSU")
	if len(svcs) != 1 || svcs[0].Name != "RMA" {
		t.Errorf("remaining: %+v", svcs)
	}
	if err := r.RemoveOrganization("PSU"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveOrganization("PSU"); !errors.Is(err, ErrNoSuchOrganization) {
		t.Errorf("double org remove: %v", err)
	}
	if _, err := r.Services("PSU"); err == nil {
		t.Error("services of removed org: want error")
	}
}

func TestAllServicesSorted(t *testing.T) {
	r := New()
	_ = r.PublishOrganization(Organization{Name: "B-org"})
	_ = r.PublishOrganization(Organization{Name: "A-org"})
	_ = r.PublishService(ServiceEntry{Organization: "B-org", Name: "x", FactoryHandle: factoryHandle("X")})
	_ = r.PublishService(ServiceEntry{Organization: "A-org", Name: "z", FactoryHandle: factoryHandle("Z")})
	_ = r.PublishService(ServiceEntry{Organization: "A-org", Name: "a", FactoryHandle: factoryHandle("A")})
	all := r.AllServices()
	var order []string
	for _, e := range all {
		order = append(order, e.Organization+"/"+e.Name)
	}
	want := []string{"A-org/a", "A-org/z", "B-org/x"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v", order)
	}
}

func TestServiceEntryRoundTrip(t *testing.T) {
	e := ServiceEntry{Organization: "PSU", Name: "HPL", Description: "has | pipe", FactoryHandle: factoryHandle("A")}
	got, err := ParseServiceEntry(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// Description parses up to the handle; handle is the 4th field so the
	// pipe inside description would break framing — descriptions are the
	// 3rd of 4 SplitN fields, so a pipe in the description shifts the
	// handle (which is why the registry rejects one at publish). Verify the
	// codec's limitation explicitly: round trip only without pipes.
	if got.Organization != "PSU" || got.Name != "HPL" {
		t.Errorf("got %+v", got)
	}
	clean := ServiceEntry{Organization: "PSU", Name: "HPL", Description: "no pipes here", FactoryHandle: factoryHandle("A")}
	got, err = ParseServiceEntry(clean.Encode())
	if err != nil || got != clean {
		t.Errorf("clean round trip: %+v, %v", got, err)
	}
	if _, err := ParseServiceEntry("too|few"); err == nil {
		t.Error("short entry: want error")
	}
}

func TestWireInvokeUnknownOp(t *testing.T) {
	r := New()
	if _, err := r.Invoke("bogus", nil); !errors.Is(err, ogsi.ErrUnknownOperation) {
		t.Errorf("got %v", err)
	}
}

func TestServiceData(t *testing.T) {
	r := New()
	_ = r.PublishOrganization(Organization{Name: "PSU"})
	_ = r.PublishService(ServiceEntry{Organization: "PSU", Name: "HPL", FactoryHandle: factoryHandle("A")})
	sd := r.ServiceData()
	if sd["organizationCount"][0] != "1" || sd["serviceCount"][0] != "1" {
		t.Errorf("service data = %v", sd)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			org := fmt.Sprintf("org%d", w)
			if err := r.PublishOrganization(Organization{Name: org}); err != nil {
				t.Errorf("org: %v", err)
				return
			}
			for i := 0; i < 20; i++ {
				e := ServiceEntry{Organization: org, Name: fmt.Sprintf("svc%d", i), FactoryHandle: factoryHandle("A")}
				if err := r.PublishService(e); err != nil {
					t.Errorf("svc: %v", err)
					return
				}
				if _, err := r.Services(org); err != nil {
					t.Errorf("list: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.AllServices()); got != 8*20 {
		t.Errorf("total services = %d", got)
	}
}

// TestClientOverWire runs the full remote path: registry deployed in a
// container, accessed via the typed Client proxy — the paper's Figure 8
// workflow.
func TestClientOverWire(t *testing.T) {
	c := container.New(ogsi.NewHosting("x:0"), container.Options{})
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := Deploy(c.Hosting(), New()); err != nil {
		t.Fatal(err)
	}

	client := Connect(c.Host())
	if err := client.PublishOrganization(Organization{Name: "PSU", Contact: "pperfgrid@pdx.edu", Description: "Portland State University"}); err != nil {
		t.Fatal(err)
	}
	entry := ServiceEntry{Organization: "PSU", Name: "HPL", Description: "Linpack data", FactoryHandle: factoryHandle("Application")}
	if err := client.PublishService(entry); err != nil {
		t.Fatal(err)
	}

	orgs, err := client.FindOrganizations("port")
	if err != nil {
		t.Fatal(err)
	}
	if len(orgs) != 0 {
		t.Errorf("name-substring query matched description: %+v", orgs)
	}
	orgs, err = client.FindOrganizations("PSU")
	if err != nil || len(orgs) != 1 || orgs[0].Contact != "pperfgrid@pdx.edu" {
		t.Fatalf("find: %+v, %v", orgs, err)
	}

	svcs, err := client.Services("PSU")
	if err != nil || len(svcs) != 1 || svcs[0] != entry {
		t.Fatalf("services: %+v, %v", svcs, err)
	}
	all, err := client.AllServices()
	if err != nil || len(all) != 1 {
		t.Fatalf("all services: %+v, %v", all, err)
	}

	if err := client.RemoveService("PSU", "HPL"); err != nil {
		t.Fatal(err)
	}
	if err := client.RemoveService("PSU", "HPL"); err == nil {
		t.Error("remote double remove: want fault")
	}
	if err := client.RemoveOrganization("PSU"); err != nil {
		t.Fatal(err)
	}
	// Server-side error surfaces through the proxy.
	if _, err := client.Services("PSU"); err == nil {
		t.Error("services of removed org over wire: want fault")
	}
}

// TestPipeInAnyFieldRoundTripsOrIsRejected pins the wire rows' framing:
// organization and service rows join their fields with "|" and split them
// with SplitN, so a "|" in any field must either come back field for field
// from FindOrganizations, Services and AllServices, or be rejected at
// publish — never read back shifted into the next field. Restore goes
// through the same checks.
func TestPipeInAnyFieldRoundTripsOrIsRejected(t *testing.T) {
	c := container.New(ogsi.NewHosting("x:0"), container.Options{})
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := Deploy(c.Hosting(), New()); err != nil {
		t.Fatal(err)
	}
	client := Connect(c.Host())

	for k := 0; k < 3; k++ {
		o := Organization{Name: fmt.Sprintf("org%d", k), Contact: "c", Description: "d"}
		*[]*string{&o.Name, &o.Contact, &o.Description}[k] += "|x"
		if err := client.PublishOrganization(o); err != nil {
			continue
		}
		got, err := client.FindOrganizations(o.Name)
		if err != nil || len(got) != 1 || got[0] != o {
			t.Errorf("organization with \"|\" in field %d: published %+v, read back %+v (%v)", k, o, got, err)
		}
	}

	if err := client.PublishOrganization(Organization{Name: "PSU"}); err != nil {
		t.Fatal(err)
	}
	var published []ServiceEntry
	for k := 0; k < 4; k++ {
		e := ServiceEntry{Organization: "PSU", Name: fmt.Sprintf("svc%d", k), Description: "d", FactoryHandle: factoryHandle("A")}
		*[]*string{&e.Organization, &e.Name, &e.Description, &e.FactoryHandle}[k] += "|x"
		if err := client.PublishService(e); err == nil {
			published = append(published, e)
		}
	}
	svcs, err := client.Services("PSU")
	if err != nil || !reflect.DeepEqual(svcs, published) {
		t.Errorf("Services: read back %+v (%v), published %+v", svcs, err, published)
	}
	all, err := client.AllServices()
	if err != nil || !reflect.DeepEqual(all, published) {
		t.Errorf("AllServices: read back %+v (%v), published %+v", all, err, published)
	}

	for _, snap := range []string{
		`{"version":1,"organizations":[{"Name":"PSU","Contact":"a|b","Description":"d"}]}`,
		`{"version":1,"organizations":[{"Name":"PSU"}],"services":[{"Organization":"PSU","Name":"HPL","Description":"x|y","FactoryHandle":"` + factoryHandle("A") + `"}]}`,
	} {
		if _, err := Restore([]byte(snap)); err == nil {
			t.Errorf("Restore accepted a snapshot whose rows would read back shifted: %s", snap)
		}
	}
}
