package core

import (
	"strings"
	"testing"
	"time"
)

// TestConfigValidate pins deploy-time rejection of malformed protocol
// configs. Validate runs on the raw config because withDefaults silently
// replaces non-positive durations — a negative BatchFlushDelay would
// otherwise "work" by accident while hiding an operator typo.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"zero value ok", func(c *Config) {}, ""},
		{"defaults ok", func(c *Config) { *c = DefaultConfig() }, ""},
		{
			"negative BatchFlushDelay",
			func(c *Config) { c.BatchFlushDelay = -time.Millisecond },
			"BatchFlushDelay must not be negative",
		},
		{
			"negative SkewTolerance",
			func(c *Config) { c.SkewTolerance = -time.Second },
			"SkewTolerance must not be negative",
		},
		{
			"negative FreshWindow",
			func(c *Config) { c.FreshWindow = -time.Second },
			"FreshWindow must not be negative",
		},
		{
			"negative KeepAlivePeriod",
			func(c *Config) { c.KeepAlivePeriod = -time.Millisecond },
			"KeepAlivePeriod must not be negative",
		},
		{
			"negative BatchSize",
			func(c *Config) { c.BatchSize = -4 },
			"BatchSize must not be negative",
		},
		{
			"negative DataRetries",
			func(c *Config) { c.DataRetries = -1 },
			"DataRetries must not be negative",
		},
		{
			"handoff without keep-alive",
			func(c *Config) { c.HandoffEnabled = true },
			"HandoffEnabled requires KeepAlivePeriod",
		},
		{
			"handoff with keep-alive ok",
			func(c *Config) { c.HandoffEnabled = true; c.KeepAlivePeriod = time.Second },
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted the config, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestDeployRejectsInvalidConfig verifies the validation actually gates
// deployment, before withDefaults can paper over the mistake.
func TestDeployRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchFlushDelay = -time.Millisecond
	_, err := Deploy(DeployOptions{N: 10, Density: 8, Seed: 1, Config: cfg})
	if err == nil {
		t.Fatal("Deploy accepted a negative BatchFlushDelay")
	}
	if !strings.Contains(err.Error(), "BatchFlushDelay") {
		t.Fatalf("unexpected error: %v", err)
	}
}
