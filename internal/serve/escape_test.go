package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"shmd/internal/tenant"
	"shmd/internal/trace"
	"shmd/internal/wire"
)

// lexLabels strictly lexes the label set of one sample line, returning
// the decoded label values by name. Label values may only use the
// text format's three escapes (\\, \" and \n) and must be valid UTF-8.
func lexLabels(line string) (map[string]string, bool) {
	open := strings.IndexByte(line, '{')
	if open < 0 {
		return nil, !strings.ContainsAny(line, "\"\\")
	}
	out := map[string]string{}
	s := line[open+1:]
	for {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, false
		}
		name := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, false
			}
			c := s[0]
			if c == '"' {
				s = s[1:]
				break
			}
			if c == '\n' {
				return nil, false
			}
			if c == '\\' {
				if len(s) < 2 {
					return nil, false
				}
				switch s[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, false
				}
				s = s[2:]
				continue
			}
			val.WriteByte(c)
			s = s[1:]
		}
		if !utf8.ValidString(val.String()) {
			return nil, false
		}
		out[name] = val.String()
		switch {
		case strings.HasPrefix(s, ","):
			s = s[1:]
		case strings.HasPrefix(s, "} "):
			return out, true
		default:
			return nil, false
		}
	}
}

// TestExpositionEscapesTenantLabels: unvalidated tenant IDs from the
// X-Tenant header and from SHMDWIRE HELLO metadata reach the tenant
// label. The scrape must escape them to the text format (only \\, \"
// and \n) with invalid UTF-8 replaced, so a strict lexer accepts every
// line and decodes the IDs back.
func TestExpositionEscapesTenantLabels(t *testing.T) {
	srv := newTestServer(t, Config{
		JitterSeed: 1,
		Tenancy:    &tenant.Config{Tenants: []tenant.Spec{{ID: "acme", Class: tenant.Standard}}},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr, stop := startWireServer(t, srv)
	defer stop()

	const httpID = "a\tb\"c\\d\xffe"
	postExpect(t, ts, httpID, "", detectBody(t, testWindows(t, trace.Trojan, 0, 4)), http.StatusForbidden)

	const wireID = "line1\nline2"
	c := wireDial(t, addr)
	hello := wire.Hello{Version: wire.ProtoVersion, MaxFrame: wire.DefaultMaxFramePayload, Meta: map[string]string{wire.MetaTenant: wireID}}
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameHello, Payload: wire.AppendHello(nil, hello)}); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.AppendDetectRequest(nil, wireDetectRequest(testWindows(t, trace.Benign, 0, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameDetect, Corr: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.Type != wire.FrameError {
		t.Fatalf("wire detect reply = %v, %v; want ERROR", f.Type, err)
	}

	seen := map[string]bool{}
	for _, line := range strings.Split(scrapeHandler(t, srv.Handler()), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		labels, ok := lexLabels(line)
		if !ok {
			t.Fatalf("strict lexer rejects %q", line)
		}
		if id, ok := labels["tenant"]; ok {
			seen[id] = true
		}
	}
	for _, want := range []string{"a\tb\"c\\d�e", wireID} {
		if !seen[want] {
			t.Errorf("tenant %q not in the scrape (saw %v)", want, seen)
		}
	}
}
