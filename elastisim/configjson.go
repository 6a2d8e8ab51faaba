package elastisim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/job"
	"repro/internal/platform"
)

// This file defines the combined simulation document: one JSON object
// carrying the platform, the workload, the algorithm, and the engine
// options. It is the wire format of the elastisimd daemon (POST
// /v1/sessions) and the -config flag of the elastisim CLI, and it is
// round-trip safe: ParseConfig(MarshalConfig(cfg)) yields a configuration
// with identical semantics (pinned by TestConfigRoundTrip).

// configDoc is the serialized form of a Config.
type configDoc struct {
	// Platform is the platform spec (same schema as a platform file).
	Platform json.RawMessage `json:"platform"`
	// Workload is the workload (same schema as a workload file).
	Workload json.RawMessage `json:"workload"`
	// Algorithm names a built-in algorithm (default "adaptive").
	Algorithm string `json:"algorithm,omitempty"`
	// Failures overrides the platform spec's failure model.
	Failures *FailureSpec `json:"failures,omitempty"`
	// Options tunes the engine.
	Options *configOptions `json:"options,omitempty"`
}

// configOptions is the serializable subset of Options: everything that
// affects simulation semantics. Host-side attachments (telemetry sinks,
// progress tickers, profiling) are deliberately absent — they are wired by
// the process running the simulation, not by the document describing it.
type configOptions struct {
	InvocationInterval Quantity `json:"invocation_interval,omitempty"`
	DisableEventDriven bool     `json:"disable_event_driven,omitempty"`
	// Fairness is "max-min" (default) or "equal-split".
	Fairness string `json:"fairness,omitempty"`
	Trace    bool   `json:"trace,omitempty"`
	// TraceTasks implies per-task log volume; it requires Trace (or a
	// telemetry tracer) to have any effect, exactly as in Options.
	TraceTasks bool     `json:"trace_tasks,omitempty"`
	Horizon    Quantity `json:"horizon,omitempty"`
}

// fairnessNames maps the serialized fairness policy names to fluid values.
var fairnessNames = map[string]fluid.Fairness{
	"max-min":     fluid.MaxMin,
	"equal-split": fluid.EqualSplit,
}

// ParseConfig decodes and fully validates a combined simulation document:
// platform, workload (validated against the platform's machine size),
// algorithm by built-in name, optional failure override, and engine
// options. Unknown top-level fields are an error, so a typo cannot
// silently turn into a default.
func ParseConfig(data []byte) (Config, error) {
	var doc configDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Config{}, fmt.Errorf("elastisim: decoding config: %w", err)
	}
	if len(doc.Platform) == 0 {
		return Config{}, fmt.Errorf("elastisim: config needs a \"platform\" object")
	}
	if len(doc.Workload) == 0 {
		return Config{}, fmt.Errorf("elastisim: config needs a \"workload\" object")
	}
	spec, err := platform.ParseSpec(doc.Platform)
	if err != nil {
		return Config{}, err
	}
	wl, err := job.ParseWorkload(doc.Workload, spec.TotalNodes())
	if err != nil {
		return Config{}, err
	}
	name := doc.Algorithm
	if name == "" {
		name = "adaptive"
	}
	algo, err := NewAlgorithm(name)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Platform: spec, Workload: wl, Algorithm: algo, Failures: doc.Failures}
	if doc.Failures != nil {
		if err := doc.Failures.Validate(); err != nil {
			return Config{}, fmt.Errorf("elastisim: config failures: %w", err)
		}
	}
	if o := doc.Options; o != nil {
		if o.InvocationInterval < 0 {
			return Config{}, fmt.Errorf("elastisim: config options: negative invocation_interval")
		}
		if o.Horizon < 0 {
			return Config{}, fmt.Errorf("elastisim: config options: negative horizon")
		}
		cfg.Options = Options{
			InvocationInterval: float64(o.InvocationInterval),
			DisableEventDriven: o.DisableEventDriven,
			Trace:              o.Trace,
			TraceTasks:         o.TraceTasks,
			Horizon:            float64(o.Horizon),
		}
		if o.Fairness != "" {
			f, ok := fairnessNames[o.Fairness]
			if !ok {
				return Config{}, fmt.Errorf("elastisim: config options: unknown fairness %q (have max-min, equal-split)", o.Fairness)
			}
			cfg.Options.Fairness = f
		}
		if err := core.CheckOptions(cfg.Options); err != nil {
			return Config{}, fmt.Errorf("elastisim: config options: %w", err)
		}
	}
	return cfg, nil
}

// algorithmKey reverses an Algorithm back to its NewAlgorithm name. The
// display name and the factory key differ for composed algorithms (the
// "packed" factory builds an algorithm named "packed+easy"), so the lookup
// instantiates every factory and matches on the display name.
func algorithmKey(a Algorithm) (string, error) {
	if a == nil {
		return "", fmt.Errorf("elastisim: config has no algorithm")
	}
	name := a.Name()
	for key, f := range algorithmFactories {
		if f().Name() == name {
			return key, nil
		}
	}
	return "", fmt.Errorf("elastisim: algorithm %q is not a built-in and cannot be serialized", name)
}

// MarshalConfig serializes a Config into the combined document form.
// Custom (non-built-in) algorithms cannot be serialized and return an
// error; host-side attachments in Options (telemetry, progress) are not
// part of the document and are ignored.
func MarshalConfig(cfg Config) ([]byte, error) {
	if cfg.Platform == nil || cfg.Workload == nil {
		return nil, fmt.Errorf("elastisim: config needs a platform and a workload")
	}
	key, err := algorithmKey(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	plat, err := json.Marshal(cfg.Platform)
	if err != nil {
		return nil, err
	}
	wl, err := json.Marshal(cfg.Workload)
	if err != nil {
		return nil, err
	}
	doc := configDoc{Platform: plat, Workload: wl, Algorithm: key, Failures: cfg.Failures}
	o := cfg.Options
	co := configOptions{
		InvocationInterval: Quantity(o.InvocationInterval),
		DisableEventDriven: o.DisableEventDriven,
		Trace:              o.Trace,
		TraceTasks:         o.TraceTasks,
		Horizon:            Quantity(o.Horizon),
	}
	if o.Fairness != fluid.MaxMin {
		co.Fairness = o.Fairness.String()
	}
	if co != (configOptions{}) {
		doc.Options = &co
	}
	return json.MarshalIndent(&doc, "", "  ")
}
