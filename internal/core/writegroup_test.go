package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
)

// twoReplicaStar stands up a two-replica SMG98 star site and binds one
// wire instance of its execution on each replica: replica 0's through the
// Manager, replica 1's through that host's Execution factory.
func twoReplicaStar(t *testing.T) (site *Site, wrappers []mapping.ApplicationWrapper, id string, stubs [2]*container.Stub) {
	t.Helper()
	smg := datagen.SMG98(datagen.SMG98Config{Executions: 1, Processes: 2, TimeBins: 2, Seed: 33})
	for i := 0; i < 2; i++ {
		w, err := mapping.NewStar(smg)
		if err != nil {
			t.Fatal(err)
		}
		wrappers = append(wrappers, w)
	}
	site, err := StartSite(SiteConfig{AppName: "SMG98", Wrappers: wrappers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	id = smg.Execs[0].ID
	h0, err := site.Manager().ExecutionHandles([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := NewRemoteFactoryRef(site.Hosts()[1]).CreateExecutions([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []string{h0[0], h1[0]} {
		if stubs[i], err = container.DialString(h); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(site.ExecutionServices(id)); n != 2 {
		t.Fatalf("%d live instances, want one per replica", n)
	}
	return site, wrappers, id, stubs
}

// groupQuery selects every func_calls row under /Process/9, a focus the
// generated dataset does not contain, so only published rows match.
var groupQuery = perfdata.Query{Metric: "func_calls", Foci: []string{"/Process/9"}, Time: perfdata.TimeRange{Start: 0, End: 1e6}, Type: perfdata.UndefinedType}

func groupRow(v float64) perfdata.Result {
	return perfdata.Result{
		Metric: "func_calls", Focus: "/Process/9/Code/MPI/MPI_Barrier", Type: "vampir",
		Time: perfdata.TimeRange{Start: v, End: v + 1}, Value: v,
	}
}

// wireGetPR runs groupQuery as a getPR over the wire.
func wireGetPR(t *testing.T, s *container.Stub) []perfdata.Result {
	t.Helper()
	out, err := s.Call(OpGetPR, groupQuery.WireParams()...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := perfdata.ParseResults(out)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// storeRows reads groupQuery straight from replica r's store.
func storeRows(t *testing.T, w mapping.ApplicationWrapper, id string) []perfdata.Result {
	t.Helper()
	ew, err := w.ExecutionWrapper(id)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ew.PerformanceResults(groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestWirePublishReachesEveryReplica: a publishPR through the instance on
// replica 0 lands in both replicas' stores, and a getPR through the
// instance on each replica — both caches warm beforehand — reads it back.
func TestWirePublishReachesEveryReplica(t *testing.T) {
	_, wrappers, id, stubs := twoReplicaStar(t)
	for _, s := range stubs {
		if rs := wireGetPR(t, s); len(rs) != 0 {
			t.Fatalf("pre-publish getPR: %v", rs)
		}
	}
	add := []perfdata.Result{groupRow(3)}
	if _, err := stubs[0].Call(OpPublishPR, perfdata.EncodeResults(add)...); err != nil {
		t.Fatal(err)
	}
	for r, w := range wrappers {
		if rs := storeRows(t, w, id); !reflect.DeepEqual(rs, add) {
			t.Errorf("replica %d store holds %v, want %v", r, rs, add)
		}
	}
	for r, s := range stubs {
		if rs := wireGetPR(t, s); !reflect.DeepEqual(rs, add) {
			t.Errorf("getPR through replica %d's instance: %v, want %v", r, rs, add)
		}
	}
}

// TestConcurrentWirePublishesKeepReplicasInStep: concurrent publishPR
// calls through instances on both replicas apply in one order on every
// replica, so each replica answers the same getPR sequence.
func TestConcurrentWirePublishesKeepReplicasInStep(t *testing.T) {
	_, wrappers, id, stubs := twoReplicaStar(t)
	const writers, batches = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, writers*batches)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				v := float64(100*w + 2*b)
				add := []perfdata.Result{groupRow(v), groupRow(v + 1)}
				if _, err := stubs[w%2].Call(OpPublishPR, perfdata.EncodeResults(add)...); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := storeRows(t, wrappers[0], id)
	if len(want) != writers*batches*2 {
		t.Fatalf("replica 0 holds %d rows, want %d", len(want), writers*batches*2)
	}
	if got := storeRows(t, wrappers[1], id); !reflect.DeepEqual(got, want) {
		t.Errorf("replica stores diverge:\nreplica 1 %v\nreplica 0 %v", got, want)
	}
	for r, s := range stubs {
		if got := wireGetPR(t, s); !reflect.DeepEqual(got, want) {
			t.Errorf("getPR through replica %d's instance diverges from replica 0's store", r)
		}
	}
}

// TestDestroyedInstanceLeavesSite: a destroyed instance — by a client
// Destroy or by the lifetime sweep — is no longer listed by the site, and
// the next getAllExecs hands out a fresh live instance for its execution
// instead of the dead handle.
func TestDestroyedInstanceLeavesSite(t *testing.T) {
	site := startHPLSite(t, 2, 1)
	app, err := container.Dial(site.ApplicationFactoryHandle()).CreateService()
	if err != nil {
		t.Fatal(err)
	}
	ends := map[string]func(*container.Stub) error{
		"destroy": func(exec *container.Stub) error { return exec.Destroy() },
		"sweep": func(exec *container.Stub) error {
			past := time.Now().Add(-time.Second).UTC().Format(time.RFC3339Nano)
			if _, err := exec.Call(ogsi.OpSetTerminationTime, past); err != nil {
				return err
			}
			// The site's own sweeper may get there first; either way a
			// sweep has destroyed the instance once this one returns.
			site.Containers()[0].Hosting().Sweep()
			if _, err := exec.Call(OpGetMetrics); err == nil {
				return fmt.Errorf("expired instance still answers after a sweep")
			}
			return nil
		},
	}
	for _, name := range []string{"destroy", "sweep"} {
		t.Run(name, func(t *testing.T) {
			handles, err := app.Call(OpGetAllExecs)
			if err != nil {
				t.Fatal(err)
			}
			exec, err := container.DialString(handles[0])
			if err != nil {
				t.Fatal(err)
			}
			id, err := exec.Call(ogsi.OpFindServiceData, "executionID")
			if err != nil {
				t.Fatal(err)
			}
			if n := len(site.ExecutionServices(id[0])); n != 1 {
				t.Fatalf("%d live instances before the end, want 1", n)
			}
			if err := ends[name](exec); err != nil {
				t.Fatal(err)
			}
			if svcs := site.ExecutionServices(id[0]); len(svcs) != 0 {
				t.Errorf("site still lists %d instances after the end", len(svcs))
			}
			again, err := app.Call(OpGetAllExecs)
			if err != nil {
				t.Fatal(err)
			}
			if again[0] == handles[0] {
				t.Fatalf("getAllExecs handed out the dead handle %s", again[0])
			}
			fresh, err := container.DialString(again[0])
			if err != nil {
				t.Fatal(err)
			}
			tse, err := fresh.Call(OpGetTimeStartEnd)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Call(OpGetPR, "gflops", tse[0], tse[1], "hpl"); err != nil {
				t.Fatalf("getPR on the fresh handle: %v", err)
			}
			if n := len(site.ExecutionServices(id[0])); n != 1 {
				t.Errorf("%d live instances after re-query, want 1", n)
			}
		})
	}
}

// TestManagerKeepsHandleWhenAnotherInstanceIsDestroyed: destroying an
// instance of an execution that the Manager did not hand out (here one
// made through the Execution factory directly) leaves the Manager's own
// handle in place, so the Manager neither re-creates the execution nor
// strands its live instance.
func TestManagerKeepsHandleWhenAnotherInstanceIsDestroyed(t *testing.T) {
	site := startHPLSite(t, 1, 1)
	ids, err := site.LocalWrapper().AllExecIDs()
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	a, err := site.Manager().ExecutionHandles([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRemoteFactoryRef(site.PrimaryHost()).Stub.Call(ogsi.OpCreateService, id)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := container.DialString(b[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.Destroy(); err != nil {
		t.Fatal(err)
	}
	again, err := site.Manager().ExecutionHandles([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != a[0] {
		t.Errorf("Manager handed out %s after another instance was destroyed, want its own %s", again[0], a[0])
	}
	if n := len(site.ExecutionServices(id)); n != 1 {
		t.Errorf("%d live instances, want the Manager's one", n)
	}
}
