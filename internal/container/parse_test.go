package container

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"

	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/soap"
)

// FuzzParseCall feeds request bodies to the transport's request parse.
// Invariant: an error, or a Call for the decoded operation with Limit >= 0
// and a deadline budget that is positive exactly when the request carries
// a ppg-deadline entry — never a panic.
func FuzzParseCall(f *testing.F) {
	h := func(name, value string) soap.HeaderEntry { return soap.HeaderEntry{Name: name, Value: value} }
	shapes := [][]soap.HeaderEntry{
		nil, // absent
		{h(ogsi.HeaderPageSize, ""), h(ogsi.HeaderCursor, ""), h(ogsi.HeaderDeadline, "")},
		{h(ogsi.HeaderPageSize, "-1")},
		{h(ogsi.HeaderDeadline, "-5")},
		{h(ogsi.HeaderDeadline, "0")},
		{h(ogsi.HeaderPageSize, "lots")},
		{h(ogsi.HeaderDeadline, "soon")},
		{h(ogsi.HeaderPageSize, "99999999999999999999")},
		{h(ogsi.HeaderDeadline, "9223372036855")},
		{h(ogsi.HeaderDeadline, strconv.FormatInt(1<<62, 10))},
		{h(ogsi.HeaderPageSize, "3"), h(ogsi.HeaderPageSize, "-3")},
		{h(ogsi.HeaderDeadline, "250"), h(ogsi.HeaderDeadline, "bad")},
		{h(ogsi.HeaderCursor, "c5"), h(ogsi.HeaderCursor, "c9")},
		{h(ogsi.HeaderCursor, "c5"), h(ogsi.HeaderPageSize, "5"), h(ogsi.HeaderDeadline, "100")},
	}
	for _, hdrs := range shapes {
		data, err := soap.EncodeRequest("getPR", hdrs, []string{"gflops", "0", "1", "hpl"})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(""))
	f.Add([]byte("not xml at all"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, call, budget, err := parseCall(body)
		if err != nil {
			return
		}
		if call.Op != req.Operation || !reflect.DeepEqual(call.Params, req.Params) {
			t.Fatalf("call %+v does not carry the decoded request %+v", call, req)
		}
		if call.Limit < 0 {
			t.Fatalf("Limit = %d", call.Limit)
		}
		_, hasDeadline := req.Header(ogsi.HeaderDeadline)
		if hasDeadline != (budget > 0) || budget < 0 {
			t.Fatalf("budget = %v with deadline entry present: %v", budget, hasDeadline)
		}
	})
}

// TestParseCallClampsHugeDeadline: a budget past what a time.Duration
// holds in milliseconds is clamped, not wrapped into an expired request.
func TestParseCallClampsHugeDeadline(t *testing.T) {
	for _, ms := range []string{"9223372036854", "9223372036855", "9223372036854775807"} {
		data, err := soap.EncodeRequest("ping", []soap.HeaderEntry{{Name: ogsi.HeaderDeadline, Value: ms}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, budget, err := parseCall(data)
		if err != nil || budget < 24*time.Hour {
			t.Errorf("%s ms: budget %v, err %v; want a clamped positive budget", ms, budget, err)
		}
	}

	// Over the wire, the same budget dispatches instead of expiring.
	c := startContainer(t, Options{})
	in, _ := c.Hosting().DeployPersistent("Echo", echoService{}, echoDef())
	data, err := soap.EncodeRequest("ping", []soap.HeaderEntry{{Name: ogsi.HeaderDeadline, Value: "9223372036855"}}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(in.Handle().URL(), soap.ContentType, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := soap.DecodeResponse(body)
	if err != nil {
		t.Fatalf("huge-budget call: %v", err)
	}
	if !reflect.DeepEqual(out.Returns, []string{"pong", "a"}) {
		t.Errorf("huge-budget call returned %v", out.Returns)
	}
}
