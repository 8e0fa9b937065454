package gateway

import (
	"bytes"
	"strings"
	"testing"

	"localalias/internal/obs"
)

// TestNewestGatewayOwnsBackendSeries: a second gateway in a process
// replaces the per-backend metric families whole, so the first one's
// backends leave no frozen series behind, and the series read the
// second gateway's counts. Neither gateway is started: nothing dials
// the (unresolvable) backend addresses.
func TestNewestGatewayOwnsBackendSeries(t *testing.T) {
	if _, err := New(Options{Backends: []string{"http://old.invalid:1"}}); err != nil {
		t.Fatal(err)
	}
	g, err := New(Options{Backends: []string{"http://new.invalid:2"}})
	if err != nil {
		t.Fatal(err)
	}
	b := g.pool.backends[0]
	b.attempts[outcomeOK].Add(3)
	b.attempts[outcomeTransport].Add(2)

	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Contains(text, "old.invalid") {
		t.Fatalf("the first gateway's series outlive it:\n%s", grepLines(text, "old.invalid"))
	}
	healthy := "0"
	if b.Healthy() {
		healthy = "1"
	}
	for _, want := range []string{
		`lna_gateway_attempts_total{backend="http://new.invalid:2",outcome="ok"} 3`,
		`lna_gateway_attempts_total{backend="http://new.invalid:2",outcome="transport"} 2`,
		`lna_gateway_attempts_total{backend="http://new.invalid:2",outcome="canceled"} 0`,
		`lna_gateway_backend_healthy{backend="http://new.invalid:2"} ` + healthy,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, grepLines(text, "new.invalid"))
		}
	}
}

// grepLines returns the lines of text that contain sub.
func grepLines(text, sub string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
