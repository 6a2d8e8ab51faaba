// Package unit provides a JSON-friendly numeric quantity type for the
// magnitudes the simulator deals in (flops, bytes, bandwidths, durations)
// and the h:mm:ss duration format of report tables.
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
