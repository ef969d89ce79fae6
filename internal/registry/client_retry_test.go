package registry

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"pperfgrid/internal/federation/backoff"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/soap"
)

// fakeRegistry scripts lookup responses per call index.
type fakeRegistry struct {
	calls int
	fn    func(ctx context.Context, call int) ([]string, error)
}

func (f *fakeRegistry) Serve(ctx context.Context, _ ogsi.Call, _ *bytes.Buffer) (ogsi.Reply, error) {
	k := f.calls
	f.calls++
	vals, err := f.fn(ctx, k)
	return ogsi.Reply{Values: vals}, err
}

func hardenedClient(f *fakeRegistry) *Client {
	c := &Client{srv: f, lookupTimeout: 100 * time.Millisecond, policy: backoff.Default()}
	c.policy.Base = time.Millisecond
	c.policy.Max = 2 * time.Millisecond
	return c
}

// TestLookupRetriesOnceOnTransientFailure pins the hardening contract:
// a transient failure earns exactly one retry — the second attempt's
// answer is returned, and exactly two calls hit the wire.
func TestLookupRetriesOnceOnTransientFailure(t *testing.T) {
	f := &fakeRegistry{fn: func(ctx context.Context, call int) ([]string, error) {
		if call == 0 {
			return nil, errors.New("connection reset")
		}
		return []string{"PSU|a@psu.edu|HPC center"}, nil
	}}
	c := hardenedClient(f)
	orgs, err := c.FindOrganizations("")
	if err != nil || len(orgs) != 1 || orgs[0].Name != "PSU" {
		t.Fatalf("FindOrganizations after transient failure: %v, %v", orgs, err)
	}
	if f.calls != 2 {
		t.Fatalf("transient failure drove %d calls, want exactly 2 (1 + 1 retry)", f.calls)
	}
}

// TestLookupGivesUpAfterOneRetry pins the upper bound: persistent
// transient failure means exactly two calls, then the error surfaces.
func TestLookupGivesUpAfterOneRetry(t *testing.T) {
	f := &fakeRegistry{fn: func(ctx context.Context, call int) ([]string, error) {
		return nil, errors.New("connection refused")
	}}
	c := hardenedClient(f)
	if _, err := c.AllServices(); err == nil {
		t.Fatal("persistent failure did not surface")
	}
	if f.calls != 2 {
		t.Fatalf("persistent failure drove %d calls, want exactly 2", f.calls)
	}
}

// TestLookupDoesNotRetryFaults pins that a SOAP fault — the registry
// answering, not the network failing — is never retried.
func TestLookupDoesNotRetryFaults(t *testing.T) {
	f := &fakeRegistry{fn: func(ctx context.Context, call int) ([]string, error) {
		return nil, &soap.Fault{Code: "Client", String: "no such organization"}
	}}
	c := hardenedClient(f)
	var fault *soap.Fault
	if _, err := c.Services("nowhere"); !errors.As(err, &fault) {
		t.Fatalf("fault not surfaced: %v", err)
	}
	if f.calls != 1 {
		t.Fatalf("SOAP fault drove %d calls, want exactly 1 (no retry)", f.calls)
	}
}

// TestLookupBoundsEachAttempt pins the timeout: a registry that never
// answers cannot hang a lookup — each attempt gets a deadline-carrying
// context, and the whole call resolves within the two-attempt envelope.
func TestLookupBoundsEachAttempt(t *testing.T) {
	f := &fakeRegistry{fn: func(ctx context.Context, call int) ([]string, error) {
		if _, ok := ctx.Deadline(); !ok {
			t.Error("lookup attempt carried no deadline")
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	c := hardenedClient(f)
	start := time.Now()
	_, err := c.FindOrganizations("")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dead registry lookup did not error")
	}
	if elapsed > time.Second {
		t.Fatalf("dead registry lookup took %v, want ~2x the 100ms attempt bound", elapsed)
	}
	if f.calls != 2 {
		t.Fatalf("dead registry drove %d calls, want 2", f.calls)
	}
}
