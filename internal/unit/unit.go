// Package unit provides a JSON-friendly numeric quantity type and
// human-readable formatting for the magnitudes the simulator deals in
// (flops, bytes, bandwidths, durations).
package unit

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/expr"
)

// Quantity is a float64 that unmarshals from either a JSON number or a
// constant expression string such as "100G" or "64*1M". It lets platform
// and workload files write magnitudes the way papers do.
type Quantity float64

// UnmarshalJSON implements json.Unmarshaler.
func (q *Quantity) UnmarshalJSON(data []byte) error {
	var num float64
	if err := json.Unmarshal(data, &num); err == nil {
		*q = Quantity(num)
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("unit: quantity must be a number or expression string, got %s", data)
	}
	e, err := expr.Compile(s)
	if err != nil {
		return fmt.Errorf("unit: bad quantity %q: %w", s, err)
	}
	if !e.IsConstant() {
		return fmt.Errorf("unit: quantity %q must be constant", s)
	}
	v, err := e.Eval(nil)
	if err != nil {
		return err
	}
	*q = Quantity(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (q Quantity) MarshalJSON() ([]byte, error) {
	return json.Marshal(float64(q))
}

var prefixes = []struct {
	factor float64
	symbol string
}{
	{1e15, "P"},
	{1e12, "T"},
	{1e9, "G"},
	{1e6, "M"},
	{1e3, "k"},
}

// Format renders v with an engineering prefix and the given suffix, e.g.
// Format(2.5e9, "B/s") == "2.50GB/s".
func Format(v float64, suffix string) string {
	a := math.Abs(v)
	for _, p := range prefixes {
		if a >= p.factor {
			return fmt.Sprintf("%.2f%s%s", v/p.factor, p.symbol, suffix)
		}
	}
	return fmt.Sprintf("%.2f%s", v, suffix)
}

// FormatSeconds renders a duration as h:mm:ss for report tables.
func FormatSeconds(s float64) string {
	if math.IsInf(s, 0) || math.IsNaN(s) {
		return fmt.Sprintf("%v", s)
	}
	neg := ""
	if s < 0 {
		neg, s = "-", -s
	}
	h := int(s) / 3600
	m := (int(s) % 3600) / 60
	sec := s - float64(h*3600+m*60)
	return fmt.Sprintf("%s%d:%02d:%05.2f", neg, h, m, sec)
}
