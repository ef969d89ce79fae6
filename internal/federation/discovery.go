package federation

import (
	"fmt"

	"pperfgrid/internal/client"
)

// Discover browses the registry behind a client session and binds every
// published service whose organization matches the query substring
// (empty = all), returning a BindingTransport with one site per bound
// service and the bound site names in registry order (organization, then
// service) — the order federated queries and their differential oracle
// iterate in.
//
// Site names are the binding keys ("org/service"), so outcomes in a
// Report line up with what the registry published. A registered site
// that cannot be bound (dead, or not yet dropped by its lease) does not
// fail discovery of the others: it is left out of the transport and
// reported as one StatusError outcome carrying the bind error. A failed
// registry lookup is an error.
func Discover(c *client.Client, orgQuery string) (*BindingTransport, []string, []SiteOutcome, error) {
	orgs, err := c.DiscoverOrganizations(orgQuery)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("federation: discover organizations: %w", err)
	}
	t := NewBindingTransport()
	var names []string
	var unbound []SiteOutcome
	for _, org := range orgs {
		svcs, err := c.DiscoverServices(org.Name)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("federation: discover services of %s: %w", org.Name, err)
		}
		for _, entry := range svcs {
			b, err := c.Bind(entry)
			if err != nil {
				unbound = append(unbound, SiteOutcome{Site: entry.Organization + "/" + entry.Name, Status: StatusError, Err: err})
				continue
			}
			t.AddSite(b.Key(), b)
			names = append(names, b.Key())
		}
	}
	return t, names, unbound, nil
}
