package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles tilevet into a temp dir and returns the binary path
// plus the repo root.
func buildTool(t *testing.T) (bin, root string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin = filepath.Join(t.TempDir(), "tilevet")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tilevet")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build tilevet: %v\n%s", err, out)
	}
	return bin, root
}

// TestVersionProbe checks the -V=full handshake cmd/go uses as its vet
// cache key: one line, tool name first, ending in a content hash.
func TestVersionProbe(t *testing.T) {
	bin, _ := buildTool(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	line := strings.TrimSpace(string(out))
	if !strings.HasPrefix(line, "tilevet version ") || !strings.Contains(line, "buildID=") {
		t.Fatalf("-V=full output %q lacks the name/buildID shape cmd/go expects", line)
	}
	flags, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if strings.TrimSpace(string(flags)) != "[]" {
		t.Fatalf("-flags output %q, want []", flags)
	}
}

// TestVetToolCleanOnTree is the acceptance gate: go vet with tilevet as
// the vettool must pass over the entire module — the analyzers produce
// zero false positives on the shipped code, and the unitchecker protocol
// (config files, export-data imports, vetx outputs) round-trips through
// cmd/go.
func TestVetToolCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a full go vet of the module")
	}
	bin, root := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool reported findings or failed: %v\n%s", err, out)
	}
}

// TestVetToolCatchesSeededViolation proves the tool actually fires under
// the go vet protocol, not just in-process: a throwaway module whose two
// methods lock the same two mutex classes in opposite orders (an ABBA
// deadlock no single-threaded test can hit) must make the vet run fail.
func TestVetToolCatchesSeededViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go vet on a scratch module")
	}
	bin, _ := buildTool(t)
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"scratch.go": `package scratch

import "sync"

type mesh struct {
	mu    sync.Mutex
	links []*link
}

type link struct {
	mu sync.Mutex
	m  *mesh
}

func (m *mesh) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.links {
		l.mu.Lock()
		l.mu.Unlock()
	}
}

func (l *link) monitor() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m.mu.Lock()
	l.m.mu.Unlock()
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on a seeded lock-order cycle:\n%s", out)
	}
	if !strings.Contains(string(out), "lock order cycle: mesh.mu acquired while holding link.mu") {
		t.Fatalf("vet failed for the wrong reason: %v\n%s", err, out)
	}
}
