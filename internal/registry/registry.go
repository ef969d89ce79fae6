// Package registry implements the UDDI-compliant registry server of the
// paper's Virtualization Layer (section 5.5.1) as a grid service, plus the
// Organization/Service client proxies the PPerfGrid client uses in place
// of the raw UDDI4J API.
//
// Publishers create an Organization entry (contact information) and one
// Service entry per Application dataset they expose; the Service entry
// carries the Application factory's GSH so consumers can bind to it and
// call CreateService. Consumers browse all organizations or query them by
// name, then bind to the services they select.
//
// Service entries are soft state, as in OGSI: each one holds a lease that
// its publisher must refresh by republishing it (Client.KeepPublished does
// so), and an entry whose lease lapses is no longer listed. A site that
// dies without removing its entry drops out of discovery one lease later.
// Organizations are not leased.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/wsdl"
)

// ServiceType is the registry's grid service type name.
const ServiceType = "UDDIRegistry"

// Organization is one publisher: a research group or site.
type Organization struct {
	Name        string
	Contact     string
	Description string
}

// ServiceEntry is one published Application dataset.
type ServiceEntry struct {
	Organization  string
	Name          string
	Description   string
	FactoryHandle string
}

// Encode renders the entry in wire form.
func (s ServiceEntry) Encode() string {
	return strings.Join([]string{s.Organization, s.Name, s.Description, s.FactoryHandle}, "|")
}

// ParseServiceEntry decodes the wire form.
func ParseServiceEntry(s string) (ServiceEntry, error) {
	parts := strings.SplitN(s, "|", 4)
	if len(parts) != 4 {
		return ServiceEntry{}, fmt.Errorf("registry: malformed service entry %q", s)
	}
	return ServiceEntry{Organization: parts[0], Name: parts[1], Description: parts[2], FactoryHandle: parts[3]}, nil
}

// Errors returned by registry operations.
var (
	ErrNoSuchOrganization = errors.New("registry: no such organization")
	ErrNoSuchService      = errors.New("registry: no such service")
	ErrDuplicate          = errors.New("registry: duplicate entry")
)

// serviceLease is how long a published service entry stays listed
// without being republished.
const serviceLease = 30 * time.Second

// Registry is the registry state and grid service implementation.
type Registry struct {
	now func() time.Time // lease clock; replaced in tests

	mu       sync.RWMutex
	orgs     map[string]Organization
	services map[string]map[string]leasedEntry // org -> service name -> entry
}

// leasedEntry is a published service and the end of its lease.
type leasedEntry struct {
	ServiceEntry
	expires time.Time
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		now:      time.Now,
		orgs:     make(map[string]Organization),
		services: make(map[string]map[string]leasedEntry),
	}
}

// PublishOrganization records a new organization. Re-publishing an
// existing name updates its contact information. The wire row is
// name|contact|description, split with SplitN, so only the description may
// contain "|"; a "|" in the name or contact is rejected rather than read
// back shifted into the next field.
func (r *Registry) PublishOrganization(o Organization) error {
	if o.Name == "" || strings.Contains(o.Name+o.Contact, "|") {
		return fmt.Errorf("registry: bad organization %q: empty name, or \"|\" in name or contact", o.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.services[o.Name]; !ok {
		r.services[o.Name] = make(map[string]leasedEntry)
	}
	r.orgs[o.Name] = o
	return nil
}

// PublishService records a service under an existing organization and
// starts its lease. The factory handle must be a well-formed GSH.
// Republishing a service with the same factory handle refreshes its lease
// (and updates its description); a different factory handle under a name
// whose lease is live is rejected with ErrDuplicate, and replaces the old
// entry once that lease has lapsed. As for organizations, only the last
// field of the wire row (the factory handle) may contain "|": one in the
// name or description is rejected (an organization name never holds one).
func (r *Registry) PublishService(e ServiceEntry) error {
	if e.Name == "" || strings.Contains(e.Name+e.Description, "|") {
		return fmt.Errorf("registry: bad service %q: empty name, or \"|\" in name or description", e.Name)
	}
	if _, err := gsh.Parse(e.FactoryHandle); err != nil {
		return fmt.Errorf("registry: service %q: %w", e.Name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	svcs, ok := r.services[e.Organization]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchOrganization, e.Organization)
	}
	now := r.now()
	if old, ok := svcs[e.Name]; ok && old.live(now) && old.FactoryHandle != e.FactoryHandle {
		return fmt.Errorf("%w: service %q in %q", ErrDuplicate, e.Name, e.Organization)
	}
	svcs[e.Name] = leasedEntry{ServiceEntry: e, expires: now.Add(serviceLease)}
	return nil
}

func (l leasedEntry) live(now time.Time) bool { return now.Before(l.expires) }

// RemoveService deletes a published service. A service whose lease has
// lapsed is already gone: removing it reports ErrNoSuchService.
func (r *Registry) RemoveService(org, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	svcs, ok := r.services[org]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchOrganization, org)
	}
	old, ok := svcs[name]
	delete(svcs, name)
	if !ok || !old.live(r.now()) {
		return fmt.Errorf("%w: %q in %q", ErrNoSuchService, name, org)
	}
	return nil
}

// RemoveOrganization deletes an organization and all of its services.
func (r *Registry) RemoveOrganization(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.orgs[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchOrganization, name)
	}
	delete(r.orgs, name)
	delete(r.services, name)
	return nil
}

// FindOrganizations returns organizations whose names contain the query
// substring (case-insensitive); the empty query returns all. Results are
// sorted by name.
func (r *Registry) FindOrganizations(query string) []Organization {
	q := strings.ToLower(query)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Organization
	for name, o := range r.orgs {
		if q == "" || strings.Contains(strings.ToLower(name), q) {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Services returns the live services of one organization, sorted by name.
func (r *Registry) Services(org string) ([]ServiceEntry, error) {
	now := r.now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	svcs, ok := r.services[org]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchOrganization, org)
	}
	out := appendLive(make([]ServiceEntry, 0, len(svcs)), svcs, now)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// appendLive appends the entries of svcs whose lease is live at now.
func appendLive(out []ServiceEntry, svcs map[string]leasedEntry, now time.Time) []ServiceEntry {
	for _, e := range svcs {
		if e.live(now) {
			out = append(out, e.ServiceEntry)
		}
	}
	return out
}

// AllServices returns every live service across organizations.
func (r *Registry) AllServices() []ServiceEntry {
	now := r.now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ServiceEntry
	for _, svcs := range r.services {
		out = appendLive(out, svcs, now)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Organization != out[j].Organization {
			return out[i].Organization < out[j].Organization
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Registry PortType operation names.
const (
	OpPublishOrganization = "publishOrganization"
	OpPublishService      = "publishService"
	OpRemoveService       = "removeService"
	OpRemoveOrganization  = "removeOrganization"
	OpFindOrganizations   = "findOrganizations"
	OpGetServices         = "getServices"
	OpGetAllServices      = "getAllServices"
)

// Definition describes the registry's PortType.
func Definition() *wsdl.Definition {
	return wsdl.New(ServiceType, wsdl.PortType{Name: ServiceType, Operations: []wsdl.Operation{
		wsdl.Op(OpPublishOrganization, "Create or update an Organization entry with contact information.",
			wsdl.P("name"), wsdl.P("contact"), wsdl.P("description")),
		wsdl.Op(OpPublishService, "Publish a Service entry carrying an Application factory GSH under an Organization, leased for "+serviceLease.String()+"; republishing the same factory handle refreshes the lease.",
			wsdl.P("organization"), wsdl.P("name"), wsdl.P("description"), wsdl.P("factoryHandle")),
		wsdl.Op(OpRemoveService, "Remove a published Service entry.",
			wsdl.P("organization"), wsdl.P("name")),
		wsdl.Op(OpRemoveOrganization, "Remove an Organization and all of its Services.",
			wsdl.P("name")),
		wsdl.Op(OpFindOrganizations, "Find Organizations by name substring; empty query returns all. Each result is name|contact|description.",
			wsdl.P("query")),
		wsdl.Op(OpGetServices, "List the Services of one Organization. Each result is organization|name|description|factoryHandle.",
			wsdl.P("organization")),
		wsdl.Op(OpGetAllServices, "List every published Service."),
	}})
}

// Invoke implements the grid service wire protocol.
func (r *Registry) Invoke(op string, params []string) ([]string, error) {
	switch op {
	case OpPublishOrganization:
		if err := r.PublishOrganization(Organization{Name: params[0], Contact: params[1], Description: params[2]}); err != nil {
			return nil, err
		}
		return []string{"ok"}, nil
	case OpPublishService:
		err := r.PublishService(ServiceEntry{
			Organization: params[0], Name: params[1], Description: params[2], FactoryHandle: params[3],
		})
		if err != nil {
			return nil, err
		}
		return []string{"ok"}, nil
	case OpRemoveService:
		if err := r.RemoveService(params[0], params[1]); err != nil {
			return nil, err
		}
		return []string{"ok"}, nil
	case OpRemoveOrganization:
		if err := r.RemoveOrganization(params[0]); err != nil {
			return nil, err
		}
		return []string{"ok"}, nil
	case OpFindOrganizations:
		orgs := r.FindOrganizations(params[0])
		out := make([]string, len(orgs))
		for i, o := range orgs {
			out[i] = strings.Join([]string{o.Name, o.Contact, o.Description}, "|")
		}
		return out, nil
	case OpGetServices:
		svcs, err := r.Services(params[0])
		if err != nil {
			return nil, err
		}
		return encodeEntries(svcs), nil
	case OpGetAllServices:
		return encodeEntries(r.AllServices()), nil
	}
	return nil, fmt.Errorf("%w: %q on registry", ogsi.ErrUnknownOperation, op)
}

func encodeEntries(svcs []ServiceEntry) []string {
	out := make([]string, len(svcs))
	for i, e := range svcs {
		out[i] = e.Encode()
	}
	return out
}

// ServiceData publishes registry statistics; serviceCount counts live
// services only.
func (r *Registry) ServiceData() map[string][]string {
	live := len(r.AllServices())
	r.mu.RLock()
	defer r.mu.RUnlock()
	return map[string][]string{
		"organizationCount": {fmt.Sprintf("%d", len(r.orgs))},
		"serviceCount":      {fmt.Sprintf("%d", live)},
	}
}

// Deploy hosts the registry as a persistent grid service.
func Deploy(h *ogsi.Hosting, r *Registry) (*ogsi.Instance, error) {
	return h.DeployPersistent(ServiceType, r, Definition())
}
