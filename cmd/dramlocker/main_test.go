package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/remote"
)

// TestFetchJSONReadsLargeRepliesAndTypedRefusals: an introspection reply
// over 1 MiB decodes whole, a refusal comes back as the broker's typed
// api.Error, and every failure names the broker.
func TestFetchJSONReadsLargeRepliesAndTypedRefusals(t *testing.T) {
	big := strings.Repeat("w", 2<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/refuse" {
			remote.WriteError(w, api.Errf(api.CodeUnavailable, "draining for maintenance"))
			return
		}
		remote.Reply(w, map[string]string{"workers": big})
	}))
	defer ts.Close()

	var got map[string]string
	if err := fetchJSON(context.Background(), "b1", ts.URL+"/big", &got); err != nil {
		t.Fatalf("2 MiB reply: %v", err)
	}
	if got["workers"] != big {
		t.Fatalf("2 MiB reply decoded to %d bytes", len(got["workers"]))
	}

	err := fetchJSON(context.Background(), "b1", ts.URL+"/refuse", &got)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeUnavailable {
		t.Fatalf("refusal: %v, want a typed %s error", err, api.CodeUnavailable)
	}
	if !strings.HasPrefix(err.Error(), "broker b1: ") {
		t.Fatalf("refusal %q does not name the broker", err)
	}
}
