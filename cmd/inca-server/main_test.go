package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the tests below run this binary as inca-server itself:
// re-executed with INCA_SERVER_MAIN=1 it is main() with the arguments given.
func TestMain(m *testing.M) {
	if os.Getenv("INCA_SERVER_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownFlagValuesExit2: every flag that names one of a fixed set of
// values refuses anything else with exit status 2 before it opens a port or
// a directory, and the flags this server no longer has are unknown.
func TestUnknownFlagValuesExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on standard error
	}{
		{[]string{"-cache", "dom"}, `unknown cache "dom"`},
		{[]string{"-cache", "split"}, `unknown cache "split"`},
		{[]string{"-cache", "file"}, `unknown cache "file"`},
		{[]string{"-cache", "stream"}, `unknown cache "stream"`},
		{[]string{"-storage", "tape"}, `unknown storage "tape"`},
		{[]string{"-mode", "Attachment"}, `unknown envelope mode "Attachment"`},
		{[]string{"-mode", ""}, `unknown envelope mode ""`},
		{[]string{"-cache-file", "inca-cache.xml"}, "flag provided but not defined: -cache-file"},
		{[]string{"-archive", "async"}, "flag provided but not defined: -archive"},
		{[]string{"-archive-workers", "8"}, "flag provided but not defined: -archive-workers"},
		{[]string{"-archive-queue", "1"}, "flag provided but not defined: -archive-queue"},
		{[]string{"-archive-drop"}, "flag provided but not defined: -archive-drop"},
		{[]string{"-storage", "disk", "-snapshot", "f"}, "-snapshot requires -storage memory"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			// A value that got through would start a server: bound the wait.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "INCA_SERVER_MAIN=1")
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

// TestUnopenableSnapshotExits1: only a -snapshot file that does not exist
// means first start. One that is there and cannot be opened stops the server
// with status 1 before it listens, and is left as it was: started on an empty
// depot, the server would overwrite it at shutdown.
func TestUnopenableSnapshotExits1(t *testing.T) {
	cases := map[string]func(path string) error{
		"symlink loop": func(path string) error { return os.Symlink(filepath.Base(path), path) },
	}
	if os.Getuid() != 0 { // root opens a file of any mode
		cases["no permission"] = func(path string) error { return os.WriteFile(path, []byte("INCADEPOT1"), 0) }
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "depot.snap")
			if err := mk(path); err != nil {
				t.Fatal(err)
			}
			before, err := os.Lstat(path)
			if err != nil {
				t.Fatal(err)
			}
			// A server that got past the snapshot would keep running: bound the wait.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-snapshot", path, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
			cmd.Env = append(os.Environ(), "INCA_SERVER_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err = cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1; stderr: %s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "snapshot "+path) {
				t.Fatalf("stderr does not name the snapshot: %s", stderr.String())
			}
			after, err := os.Lstat(path)
			if err != nil || after.Mode() != before.Mode() || after.Size() != before.Size() || !after.ModTime().Equal(before.ModTime()) {
				t.Fatalf("snapshot changed: %v, %v, want %v", after, err, before)
			}
		})
	}
}

// TestRouterMountsPprofOnlyWhenAsked: -pprof reaches the federated tier's
// handler set, so the router — the busiest process of a federation — can be
// profiled; without the flag the path is not served.
func TestRouterMountsPprofOnlyWhenAsked(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
		want  int
	}{
		{"with -pprof", []string{"-pprof"}, http.StatusOK},
		{"without", nil, http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			// The shard is never dialled: nothing is routed or queried.
			args := append([]string{"-federate", "127.0.0.1:1/127.0.0.1:1", "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0"}, tc.extra...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "INCA_SERVER_MAIN=1")
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				cancel() // kills the router
				_ = cmd.Wait()
			}()
			const banner = "federated querying interface on http://"
			var addr string
			sc := bufio.NewScanner(stdout)
			for addr == "" && sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), banner); ok {
					addr, _, _ = strings.Cut(rest, " ")
				}
			}
			if addr == "" {
				t.Fatalf("router never printed %q (scan error: %v)", banner, sc.Err())
			}
			resp, err := http.Get("http://" + addr + "/debug/pprof/")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("GET /debug/pprof/ = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}
