package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test below run this binary as inca-agent itself:
// re-executed with INCA_AGENT_MAIN=1 it is main() with the arguments given.
func TestMain(m *testing.M) {
	if os.Getenv("INCA_AGENT_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRetiredDeliveryFlagsExit2: the agent has one delivery path, so the
// flags that chose between four are unknown, and the one value of -spool
// that meant "on, in memory" is refused with a message saying the spool is
// always on — all before anything is dialled or opened.
func TestRetiredDeliveryFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on standard error
	}{
		{[]string{"-flush-size", "8"}, "flag provided but not defined: -flush-size"},
		{[]string{"-flush-interval", "200ms"}, "flag provided but not defined: -flush-interval"},
		{[]string{"-retry", "3"}, "flag provided but not defined: -retry"},
		{[]string{"-spool", "mem"}, "the spool is always on"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			// A flag that got through would start an agent: bound the wait.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "INCA_AGENT_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2; stderr: %s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr lacks %q: %s", tc.want, stderr.String())
			}
		})
	}
}
