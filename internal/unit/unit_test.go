package unit

import (
	"encoding/json"
	"testing"
)

func TestQuantityNumber(t *testing.T) {
	var q Quantity
	if err := json.Unmarshal([]byte(`2.5`), &q); err != nil {
		t.Fatal(err)
	}
	if float64(q) != 2.5 {
		t.Errorf("q = %v", float64(q))
	}
}

func TestQuantityExpressionString(t *testing.T) {
	cases := map[string]float64{
		`"100G"`:  1e11,
		`"64*1M"`: 6.4e7,
		`"2^20"`:  1 << 20,
		`"1.5k"`:  1500,
		`"0"`:     0,
	}
	for src, want := range cases {
		var q Quantity
		if err := json.Unmarshal([]byte(src), &q); err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if float64(q) != want {
			t.Errorf("%s = %v, want %v", src, float64(q), want)
		}
	}
}

func TestQuantityErrors(t *testing.T) {
	for _, src := range []string{`"x+1"`, `"("`, `[1,2]`, `{}`, `true`} {
		var q Quantity
		if err := json.Unmarshal([]byte(src), &q); err == nil {
			t.Errorf("%s accepted", src)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0:00:00.00"},
		{61.5, "0:01:01.50"},
		{3661, "1:01:01.00"},
		{-90, "-0:01:30.00"},
		{7325.25, "2:02:05.25"},
	}
	for _, tc := range cases {
		if got := FormatSeconds(tc.v); got != tc.want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
