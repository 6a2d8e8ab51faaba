// Package cli is the shared scaffolding of the repository's commands: a
// single-exit-point runner that installs a signal-aware context, maps
// errors to conventional exit codes, and routes diagnostics to stderr.
//
// Every command's main is a one-liner:
//
//	func main() { cli.Main("tool", run) }
//	func run(ctx context.Context) error { ... }
//
// The context is cancelled on the first SIGINT/SIGTERM, giving run a
// chance to stop simulations between events and flush partial outputs; a
// second signal kills the process the usual way (the handler is removed
// once the context fires). Exit codes follow shell conventions:
//
//	0   success
//	1   error (printed to stderr as "tool: error", with no second prefix
//	    when the error already begins "tool: ")
//	2   usage error (run returned ErrUsage, after printing usage itself)
//	130 cancelled by signal (128 + SIGINT)
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// Exit codes returned by Run.
const (
	ExitOK        = 0
	ExitError     = 1
	ExitUsage     = 2
	ExitCancelled = 130
)

// ErrUsage marks a command-line usage error: Run exits with ExitUsage and
// prints nothing (the command prints its own usage first). Wrap it with
// Usagef to also emit a one-line diagnostic.
var ErrUsage = errors.New("usage")

// Usagef builds a usage error carrying a printable message.
func Usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

type usageError struct{ msg string }

func (e *usageError) Error() string        { return e.msg }
func (e *usageError) Is(target error) bool { return target == ErrUsage }

// Main executes run under a signal-aware context and exits the process
// with the resulting code. It is the only exit point a command needs.
func Main(tool string, run func(ctx context.Context) error) {
	os.Exit(Run(tool, run))
}

// Run is Main without the os.Exit, for tests: it executes run with a
// context cancelled on SIGINT/SIGTERM and maps the returned error to an
// exit code, printing diagnostics to stderr.
func Run(tool string, run func(ctx context.Context) error) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx)
	stop() // restore default signal handling before exiting
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrUsage):
		if err != ErrUsage {
			report(tool, err)
		}
		return ExitUsage
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "%s: cancelled\n", tool)
		return ExitCancelled
	default:
		report(tool, err)
		return ExitError
	}
}

// report prints err to stderr as "tool: err". An error that already names
// the tool, as the library's errors name "elastisim", keeps its one prefix.
func report(tool string, err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, tool+": ") {
		msg = tool + ": " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
}
