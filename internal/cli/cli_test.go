package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"ok", nil, ExitOK},
		{"error", errors.New("boom"), ExitError},
		{"wrapped error", fmt.Errorf("ctx: %w", errors.New("boom")), ExitError},
		{"usage", ErrUsage, ExitUsage},
		{"usagef", Usagef("bad flag %q", "-x"), ExitUsage},
		{"cancelled", context.Canceled, ExitCancelled},
		{"wrapped cancelled", fmt.Errorf("sweep: %w", context.Canceled), ExitCancelled},
		{"deadline", context.DeadlineExceeded, ExitCancelled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Run("test", func(ctx context.Context) error { return tc.err })
			if got != tc.want {
				t.Errorf("Run(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestRunPrefixesOnce: Run prints an error as "tool: error", but an error
// that already begins with "tool: ", as the elastisim library's errors do,
// keeps its one prefix.
func TestRunPrefixesOnce(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{errors.New("boom"), "test: boom\n"},
		{errors.New("test: internal error at sim time 0"), "test: internal error at sim time 0\n"},
		{fmt.Errorf("test: decoding config: %w", errors.New("EOF")), "test: decoding config: EOF\n"},
		{errors.New("testing: not this tool"), "test: testing: not this tool\n"},
		{Usagef("test: bad flag"), "test: bad flag\n"},
	}
	for _, tc := range cases {
		got := captureStderr(t, func() { Run("test", func(ctx context.Context) error { return tc.err }) })
		if got != tc.want {
			t.Errorf("Run(%q) printed %q, want %q", tc.err, got, tc.want)
		}
	}
}

// captureStderr runs f with os.Stderr redirected to a file and returns
// what f wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stderr")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = stderr }()
	f()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestUsagefMatchesErrUsage(t *testing.T) {
	err := Usagef("need a -platform")
	if !errors.Is(err, ErrUsage) {
		t.Fatalf("Usagef error does not match ErrUsage")
	}
	if err.Error() != "need a -platform" {
		t.Errorf("message = %q", err.Error())
	}
}

// TestRunSignalCancelsContext delivers a real SIGTERM to the process and
// checks the run context observes it and the exit code is 130.
func TestRunSignalCancelsContext(t *testing.T) {
	got := Run("test", func(ctx context.Context) error {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			return fmt.Errorf("self-signal: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return errors.New("context never cancelled after SIGTERM")
		}
	})
	if got != ExitCancelled {
		t.Errorf("exit code = %d, want %d", got, ExitCancelled)
	}
}
