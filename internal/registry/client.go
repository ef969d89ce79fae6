package registry

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/federation/backoff"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/soap"
)

// Lookup hardening defaults: every discovery call is bounded, and a
// transient failure earns exactly one jittered retry. Registry lookups
// gate every federated query's site discovery, so they must neither hang
// on a dead registry nor give up on a single dropped packet.
const (
	// DefaultLookupTimeout bounds one lookup/browse attempt.
	DefaultLookupTimeout = 2 * time.Second
	// lookupRetries is the number of extra attempts after a transient
	// lookup failure.
	lookupRetries = 1
)

// Client is the typed proxy PPerfGrid clients and publishers use against a
// remote registry — the analogue of the paper's Organization and Service
// proxy classes over UDDI4J. Every call goes through one ogsi.Server, the
// registry's container.Stub (a scripted fake in tests). Lookups are bounded
// and retried once on transient failure; publishes and removals are sent
// once.
type Client struct {
	srv ogsi.Server

	lookupTimeout time.Duration
	policy        backoff.Policy
}

// Connect binds a client to the registry hosted at the given host:port.
func Connect(host string) *Client {
	srv := container.Dial(gsh.Persistent(host, ServiceType))
	return &Client{srv: srv, lookupTimeout: DefaultLookupTimeout, policy: backoff.Default()}
}

// lookup runs one registry call that is safe to repeat (a read, or a
// KeepPublished refresh or removal) with a per-attempt deadline and a
// single jittered retry on transient failure. SOAP faults are the
// registry answering (malformed query, unknown org) — retrying would
// only repeat the answer, so they return immediately. One-shot publishes
// and removals are deliberately not routed through here: blind write
// retries could duplicate side effects.
func (c *Client) lookup(op string, params ...string) ([]string, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), c.lookupTimeout)
		rows, err := ogsi.Invoke(ctx, c.srv, op, params...)
		cancel()
		if err == nil {
			return rows, nil
		}
		lastErr = err
		var fault *soap.Fault
		if errors.As(err, &fault) || attempt >= lookupRetries {
			return nil, lastErr
		}
		c.policy.Sleep(attempt, nil, nil)
	}
}

// PublishOrganization creates or updates an organization entry.
func (c *Client) PublishOrganization(o Organization) error {
	_, err := ogsi.Invoke(context.Background(), c.srv, OpPublishOrganization, o.Name, o.Contact, o.Description)
	return err
}

// KeepPublished publishes e and republishes it every third of its lease,
// so the entry stays listed for as long as ctx is live. A failed publish
// (the registry unreachable, or a previous instance of the same site
// whose lease has not lapsed yet) is logged and retried on the next tick.
// When ctx is done it removes the entry, ignoring ErrNoSuchService, and
// returns the removal's error. Each call is bounded like a lookup.
func (c *Client) KeepPublished(ctx context.Context, e ServiceEntry) error {
	return c.keepPublished(ctx, e, serviceLease/3)
}

func (c *Client) keepPublished(ctx context.Context, e ServiceEntry, every time.Duration) error {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		if _, err := c.lookup(OpPublishService, e.Organization, e.Name, e.Description, e.FactoryHandle); err != nil {
			log.Printf("registry: refresh %s/%s: %v", e.Organization, e.Name, err)
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			_, err := c.lookup(OpRemoveService, e.Organization, e.Name)
			if err != nil && strings.Contains(err.Error(), ErrNoSuchService.Error()) {
				err = nil
			}
			return err
		}
	}
}

// PublishService publishes a service entry, or refreshes its lease.
func (c *Client) PublishService(e ServiceEntry) error {
	_, err := ogsi.Invoke(context.Background(), c.srv, OpPublishService, e.Organization, e.Name, e.Description, e.FactoryHandle)
	return err
}

// RemoveService removes one published service.
func (c *Client) RemoveService(org, name string) error {
	_, err := ogsi.Invoke(context.Background(), c.srv, OpRemoveService, org, name)
	return err
}

// RemoveOrganization removes an organization and its services.
func (c *Client) RemoveOrganization(name string) error {
	_, err := ogsi.Invoke(context.Background(), c.srv, OpRemoveOrganization, name)
	return err
}

// FindOrganizations queries organizations by name substring; empty query
// returns all.
func (c *Client) FindOrganizations(query string) ([]Organization, error) {
	rows, err := c.lookup(OpFindOrganizations, query)
	if err != nil {
		return nil, err
	}
	out := make([]Organization, len(rows))
	for i, row := range rows {
		parts := strings.SplitN(row, "|", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("registry: malformed organization row %q", row)
		}
		out[i] = Organization{Name: parts[0], Contact: parts[1], Description: parts[2]}
	}
	return out, nil
}

// Services lists the services published by one organization.
func (c *Client) Services(org string) ([]ServiceEntry, error) {
	rows, err := c.lookup(OpGetServices, org)
	if err != nil {
		return nil, err
	}
	return parseEntries(rows)
}

// AllServices lists every published service.
func (c *Client) AllServices() ([]ServiceEntry, error) {
	rows, err := c.lookup(OpGetAllServices)
	if err != nil {
		return nil, err
	}
	return parseEntries(rows)
}

func parseEntries(rows []string) ([]ServiceEntry, error) {
	out := make([]ServiceEntry, len(rows))
	for i, row := range rows {
		e, err := ParseServiceEntry(row)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}
