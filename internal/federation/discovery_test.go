package federation_test

import (
	"strings"
	"testing"

	"pperfgrid/internal/client"
	"pperfgrid/internal/container"
	"pperfgrid/internal/federation"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/registry"
)

// TestDiscoverSkipsDeadSite: with one registered site closed, Discover
// still binds the live one and names the dead one, with its bind error,
// as a StatusError outcome.
func TestDiscoverSkipsDeadSite(t *testing.T) {
	regCont := container.New(ogsi.NewHosting("pending:0"), container.Options{})
	if err := regCont.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { regCont.Close() })
	if _, err := registry.Deploy(regCont.Hosting(), registry.New()); err != nil {
		t.Fatal(err)
	}
	pub := registry.Connect(regCont.Host())
	fleet := startFleet(t, 2)
	for i, org := range []string{"A-live", "B-dead"} {
		if err := pub.PublishOrganization(registry.Organization{Name: org}); err != nil {
			t.Fatal(err)
		}
		e := registry.ServiceEntry{Organization: org, Name: siteName(i), FactoryHandle: fleet[i].ApplicationFactoryHandle().String()}
		if err := pub.PublishService(e); err != nil {
			t.Fatal(err)
		}
	}
	fleet[1].Close()

	transport, names, unbound, err := federation.Discover(client.New(regCont.Host()), "")
	if err != nil {
		t.Fatalf("Discover with one dead site: %v", err)
	}
	live, dead := "A-live/"+siteName(0), "B-dead/"+siteName(1)
	if len(names) != 1 || names[0] != live {
		t.Errorf("bound sites = %v, want [%s]", names, live)
	}
	if len(unbound) != 1 {
		t.Fatalf("unbound = %+v, want one outcome for %s", unbound, dead)
	}
	if o := unbound[0]; o.Site != dead || o.Status != federation.StatusError || o.Err == nil || !strings.Contains(o.Err.Error(), siteName(1)) {
		t.Errorf("unbound outcome = %+v, want %s with status error and its bind error", o, dead)
	}
	r := federation.New(transport, federation.Config{}).Query(t.Context(), names, oracleQueries["hpl"])
	if !r.Complete {
		t.Errorf("query over the bound sites: %s", r.Summary())
	}
}
