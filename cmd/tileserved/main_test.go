package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles tileserved into a temp dir; its callers skip in
// -short mode for that reason.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "tileserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestCacheFlagRejected checks that a -cache value the plan cache cannot
// honour (there is no uncached mode), or a bound that is not positive (none
// has a "disabled" setting), exits 2 with the usage text instead of booting.
// A binary that boots is stopped by the timeout.
func TestCacheFlagRejected(t *testing.T) {
	bin := buildBinary(t)
	for _, row := range [][2]string{
		{"-cache", "0"}, {"-cache", "-3"}, {"-inflight", "0"}, {"-queue", "0"},
		{"-maxranks", "0"}, {"-watchdog", "0s"}, {"-retryafter", "0s"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", row[0], row[1]).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: err = %v, want exit status 2\n%s", row[0], row[1], err, out)
			continue
		}
		if !bytes.Contains(out, []byte(row[0]+" "+row[1])) || !bytes.Contains(out, []byte("Usage of ")) {
			t.Errorf("%s %s: output names neither the bad value nor the usage:\n%s", row[0], row[1], out)
		}
	}
}

// TestServedEndToEnd builds the binary, boots it on a free port, drives
// one request through the full stack, and checks SIGTERM drains to a
// clean exit.
func TestServedEndToEnd(t *testing.T) {
	bin := buildBinary(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "-addr", addr)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the listener.
	url := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v\n%s", err, stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	spec := "let M = 6\nlet N = 12\nfor t = 1 .. M\nfor i = 1 .. N\nA[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + 3\ntile 1/3 0 / 0 1/4\n"
	body := fmt.Sprintf(`{"source":%q}`, spec)
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not exit after SIGTERM\n%s", stderr.String())
	}
}
