package transport

import (
	"strings"
	"testing"
	"time"
)

// TestConfigValidate pins the raw-config contract: negative durations
// and counts are rejected with the field named, while the zero value and
// sensible configs pass.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"zero value", Config{}, ""},
		{"arq defaults", Config{ARQ: true}, ""},
		{"coalescing", Config{ARQ: true, AckDelay: 4 * time.Millisecond}, ""},
		{"negative ack delay", Config{ARQ: true, AckDelay: -time.Millisecond}, "AckDelay must not be negative"},
		{"negative max retries", Config{ARQ: true, MaxRetries: -1}, "MaxRetries must not be negative"},
		{"ack delay without arq", Config{AckDelay: time.Millisecond}, "AckDelay requires ARQ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestNewEndpointRejectsInvalidConfig pins the seam: an endpoint must
// never be built around a config Validate rejects.
func TestNewEndpointRejectsInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEndpoint accepted a negative MaxRetries")
		}
	}()
	NewEndpoint(Config{ARQ: true, MaxRetries: -1}, 0, nil, nil, nil)
}
