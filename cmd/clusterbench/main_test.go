package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandLine builds the binary once and pins the command's contract:
// exit codes, the header line, one figure table, that a report's runtime
// error fails the command, and that the flags of the retired per-harness
// snapshots are gone (flag rejects them with exit 2).
func TestCommandLine(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "clusterbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name     string
		args     []string
		wantExit int
		wantOut  string // substring of stdout
		wantErr  string // substring of stderr
	}{
		{"fig-none", []string{"-fig", "none"}, 0, "tilespace clusterbench — simulated", ""},
		{"fig-unknown", []string{"-fig", "99"}, 2, "", `no figure "99"`},
		{"fig5", []string{"-fig", "5", "-scale", "8"}, 0, "== fig5:", ""},
		{"report-error", []string{"-fig", "none", "-trace", filepath.Join(filepath.Dir(bin), "missing", "t.json")}, 1, "", "clusterbench: trace:"},
		{"removed-flag", []string{"-dynbench", "x"}, 2, "", "flag provided but not defined: -dynbench"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			exit := 0
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				exit = ee.ExitCode()
			}
			if exit != tc.wantExit {
				t.Errorf("exit %d, want %d\nstderr: %s", exit, tc.wantExit, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout lacks %q:\n%s", tc.wantOut, &stdout)
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantErr, &stderr)
			}
		})
	}
}
