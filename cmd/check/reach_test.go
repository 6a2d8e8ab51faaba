package main

import (
	"strings"
	"testing"
)

func TestSymbolKey(t *testing.T) {
	for _, tc := range []struct {
		sym, want string
		ok        bool
	}{
		{"repro/internal/des.(*Kernel).Schedule", "repro/internal/des.Kernel.Schedule", true},
		{"repro/internal/des.Time.String", "repro/internal/des.Time.String", true},
		{"repro/internal/des.NewKernel", "repro/internal/des.NewKernel", true},
		{"repro/elastisim.(*Result).WriteJSON-fm", "repro/elastisim.Result.WriteJSON", true},
		{"repro/internal/distwork.(*Pool[go.shape.[]uint8]).Start", "repro/internal/distwork.Pool.Start", true},
		{"repro/internal/distwork.(*Store[encoding/json.RawMessage]).ClaimBatch", "repro/internal/distwork.Store.ClaimBatch", true},
		{`repro/internal/httpapi.(*LeaseAPI[go.shape.struct { Index int "json:\"index\""; Tags []string "json:\"tags,omitempty\"" }]).handleClaimBatch`,
			"repro/internal/httpapi.LeaseAPI.handleClaimBatch", true},
		{"repro/internal/distwork.drain[go.shape.map[string]int]", "repro/internal/distwork.drain", true},
		{"repro/internal/core.(*Engine).armSubmissions.func1", "", false},
		{"repro/internal/core.(*Engine).armSubmissions.func2.1", "", false},
		{"repro/elastisim.(*Session).Step.deferwrap1", "", false},
		{"repro/internal/distwork.(*Pool[go.shape.[]uint8]).Start.func1.gowrap2", "", false},
		{"repro/internal/obs.glob..func1", "", false},
		{"runtime", "", false},
	} {
		got, ok := symbolKey(tc.sym)
		if ok != tc.ok || ok && got != tc.want {
			t.Errorf("symbolKey(%q) = %q, %v; want %q, %v", tc.sym, got, ok, tc.want, tc.ok)
		}
	}
}

func TestReachProblems(t *testing.T) {
	decls := []funcDecl{
		{"m/internal/a.Used", "a.go:1"},
		{"m/internal/a.T.Unused", "a.go:2"},
		{"m/internal/a.Seam", "a.go:3"},
		{"m/internal/a.LinkedSeam", "a.go:4"},
	}
	linked := map[string]bool{"m/internal/a.Used": true, "m/internal/a.LinkedSeam": true}
	allow := map[string]string{
		"m/internal/a.Seam":       "a TestSeam",
		"m/internal/a.LinkedSeam": "a TestLinkedSeam",
		"m/internal/a.Gone":       "a TestGone",
	}
	got := reachProblems(decls, linked, allow)
	want := []string{
		"a.go:2: m/internal/a.T.Unused is linked by no binary",
		"a.go:4: m/internal/a.LinkedSeam is linked; drop it from the allowlist",
		"allowlisted m/internal/a.Gone is not declared",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if p := reachProblems(decls[:1], linked, nil); len(p) != 0 {
		t.Errorf("all linked, empty allowlist: %v", p)
	}
}

// TestReachAllowlistNamesTests pins that every allowlist entry says which
// test in another package keeps it.
func TestReachAllowlistNamesTests(t *testing.T) {
	for k, v := range reachAllow {
		if !strings.Contains(v, " Test") {
			t.Errorf("allowlist entry %s names no test: %q", k, v)
		}
	}
}
