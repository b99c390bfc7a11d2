package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tilespace/internal/compile"
	texec "tilespace/internal/exec"
	"tilespace/internal/procrun"
)

// rankdSpec is the driver suite's workload: a 2-D skewed-dependence
// stencil whose tiling distributes over several ranks, expressed in the
// DSL so every rank process compiles the identical program. (Go-closure
// apps — the internal differential suite's SOR/ADI/Heat3D kernels —
// are not DSL-expressible, so cross-process differentials run on DSL
// specs; the in-process transport matrix covers the closure apps.)
const rankdSpec = "let M = 12\nlet N = 24\n" +
	"for t = 1 .. M\nfor i = 1 .. N\n" +
	"A[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + 3\n" +
	"tile 1/3 0 / 0 1/6\n"

var buildOnce sync.Once
var builtBin string
var buildErr error

func rankdBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tilerankd-bin-")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "tilerankd")
		if out, err := exec.Command("go", "build", "-o", builtBin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
}

// freePorts grabs n distinct loopback addresses by listening and
// closing; the rendezvous hands them to the rank processes.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

type rankProc struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan error
}

func (p *rankProc) wait(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case err := <-p.done:
		return err
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		t.Fatalf("rank process did not exit\n%s", p.stderr.String())
		return nil
	}
}

func startRank(t *testing.T, bin string, args ...string) *rankProc {
	t.Helper()
	p := &rankProc{cmd: exec.Command(bin, args...), done: make(chan error, 1)}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill() })
	go func() { p.done <- p.cmd.Wait() }()
	return p
}

func writeRankdFixture(t *testing.T, dir string, procs int) (peers, spec string) {
	t.Helper()
	addrs := freePorts(t, procs)
	rv := &procrun.Rendezvous{Size: procs, Addrs: map[int]string{}}
	for r, a := range addrs {
		rv.Addrs[r] = a
	}
	peers = filepath.Join(dir, "peers.json")
	if err := procrun.WriteRendezvous(peers, rv); err != nil {
		t.Fatal(err)
	}
	spec = filepath.Join(dir, "spec.dsl")
	if err := os.WriteFile(spec, []byte(rankdSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return peers, spec
}

// rankdProgram compiles rankdSpec as every rank process does.
func rankdProgram(t *testing.T) *texec.Program {
	t.Helper()
	art, err := compile.Compile(compile.Spec{Source: rankdSpec})
	if err != nil {
		t.Fatal(err)
	}
	return art.Prog
}

// TestRankdRefusesAnotherRanksCheckpoint: a -ckpt file saved by rank 1 must
// not seed rank 0's mesh — its welcome counts would claim a conversation
// rank 0 never had — so run refuses it, naming both ranks, before any mesh
// is built.
func TestRankdRefusesAnotherRanksCheckpoint(t *testing.T) {
	prog := rankdProgram(t)
	dir := t.TempDir()
	peers, spec := writeRankdFixture(t, dir, prog.Dist.NumProcs())
	ckpt := filepath.Join(dir, "rank1.ckpt")
	if err := procrun.SaveSnapshot(ckpt, &texec.RankSnapshot{Rank: 1, NextTile: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run(0, peers, spec, filepath.Join(dir, "rank0.json"), false,
			time.Second, ckpt, 2, 500*time.Millisecond, 0, 0)
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("run accepted rank 1's checkpoint and went on to wait for its peers")
	}
	if err == nil || !strings.Contains(err.Error(), "snapshot of rank 1, this process is rank 0") {
		t.Fatalf("run with rank 1's checkpoint as rank 0: err = %v", err)
	}
}

// TestRankdEndToEnd is the multi-process differential: build the
// binary, boot one OS process per rank, run the spec over real TCP, and
// require the merged fragments bit-identical — Global and Stats — to
// the single-process channel-fabric run of the same spec.
func TestRankdEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and boots rank processes; skipped in -short")
	}
	prog := rankdProgram(t)
	procs := prog.Dist.NumProcs()
	if procs < 2 {
		t.Fatalf("spec distributes over %d ranks; the driver test needs at least 2", procs)
	}
	want, wantStats, err := prog.RunParallelOpts(texec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	bin := rankdBin(t)
	dir := t.TempDir()
	peers, spec := writeRankdFixture(t, dir, procs)

	ranks := make([]*rankProc, procs)
	for r := 0; r < procs; r++ {
		ranks[r] = startRank(t, bin,
			"-rank", strconv.Itoa(r), "-peers", peers, "-spec", spec,
			"-result", filepath.Join(dir, fmt.Sprintf("rank%d.json", r)),
			"-peerwait", "20s")
	}
	var results []*procrun.RankResult
	for r, p := range ranks {
		if err := p.wait(t, 60*time.Second); err != nil {
			t.Fatalf("rank %d: %v\n%s", r, err, p.stderr.String())
		}
		frag, err := readResult(filepath.Join(dir, fmt.Sprintf("rank%d.json", r)))
		if err != nil {
			t.Fatalf("rank %d result: %v", r, err)
		}
		results = append(results, frag)
	}

	got, gotStats, err := procrun.Merge(prog, results)
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := want.MaxAbsDiff(got, prog.ScanSpace); diff != 0 {
		t.Fatalf("multi-process run differs from in-process by %g at %v", diff, at)
	}
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("merged stats differ from in-process\nwant %+v\n got %+v", wantStats, gotStats)
	}
	for r, frag := range results {
		if frag.Wire.FramesSent == 0 && frag.Traffic.BlockingSends > 0 {
			t.Errorf("rank %d sent %d messages but reported zero wire frames", r, frag.Traffic.BlockingSends)
		}
	}
}

// TestRankdSIGTERM: a terminated rank exits promptly and controlled
// (error message, no result file), and its peers surface the loss as a
// transport fault instead of hanging.
func TestRankdSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and boots rank processes; skipped in -short")
	}
	prog := rankdProgram(t)
	procs := prog.Dist.NumProcs()
	bin := rankdBin(t)
	dir := t.TempDir()
	peers, spec := writeRankdFixture(t, dir, procs)

	ranks := make([]*rankProc, procs)
	for r := 0; r < procs; r++ {
		ranks[r] = startRank(t, bin,
			"-rank", strconv.Itoa(r), "-peers", peers, "-spec", spec,
			"-result", filepath.Join(dir, fmt.Sprintf("rank%d.json", r)),
			"-peerwait", "2s", "-pointdelay", "20ms")
	}
	// Let the mesh connect and the run start, then terminate rank 0.
	time.Sleep(500 * time.Millisecond)
	if err := ranks[0].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := ranks[0].wait(t, 15*time.Second); err == nil {
		t.Fatalf("terminated rank exited 0\n%s", ranks[0].stderr.String())
	}
	if !bytes.Contains(ranks[0].stderr.Bytes(), []byte("terminated")) {
		t.Errorf("terminated rank's stderr does not name the signal:\n%s", ranks[0].stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "rank0.json")); err == nil {
		t.Error("terminated rank wrote a result file")
	}
	// Peers lose rank 0 and must fail within PeerWait, not hang.
	for r := 1; r < procs; r++ {
		if err := ranks[r].wait(t, 30*time.Second); err == nil {
			t.Errorf("rank %d exited 0 after losing its peer\n%s", r, ranks[r].stderr.String())
		}
	}
}

// TestRankdKillRelaunchRecovers is the acceptance crash case over real
// processes: SIGKILL one rank mid-run, relaunch it from its checkpoint
// file, and require the merged result bit-identical to the in-process
// reference — the relaunched process resumes mid-conversation through
// the mesh's resume protocol (welcome counts, retained-frame resend,
// regenerated-frame suppression).
//
// Only the Global is asserted: traffic counters live in process memory,
// so the killed rank's pre-snapshot counts die with it — merged Stats
// legitimately undercount after a crash (documented in DESIGN.md).
func TestRankdKillRelaunchRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and boots rank processes; skipped in -short")
	}
	prog := rankdProgram(t)
	procs := prog.Dist.NumProcs()
	if procs < 2 {
		t.Fatalf("need at least 2 ranks, got %d", procs)
	}
	want, _, err := prog.RunParallelOpts(texec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	bin := rankdBin(t)
	dir := t.TempDir()
	peers, spec := writeRankdFixture(t, dir, procs)
	victim := 1
	ckpt := filepath.Join(dir, "rank1.ckpt")

	args := func(r int) []string {
		a := []string{
			"-rank", strconv.Itoa(r), "-peers", peers, "-spec", spec,
			"-result", filepath.Join(dir, fmt.Sprintf("rank%d.json", r)),
			"-peerwait", "30s", "-pointdelay", "4ms",
		}
		if r == victim {
			a = append(a, "-ckpt", ckpt, "-every", "1")
		}
		return a
	}
	ranks := make([]*rankProc, procs)
	for r := 0; r < procs; r++ {
		ranks[r] = startRank(t, bin, args(r)...)
	}

	// Kill the victim as soon as its first checkpoint lands.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(ckpt); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared\n%s", ranks[victim].stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := ranks[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-ranks[victim].done

	// Relaunch with identical flags: the process builds its mesh from the
	// snapshot's stream positions, restores the chain, and rejoins.
	relaunched := startRank(t, bin, args(victim)...)
	if err := relaunched.wait(t, 60*time.Second); err != nil {
		t.Fatalf("relaunched rank: %v\n%s", err, relaunched.stderr.String())
	}
	if !bytes.Contains(relaunched.stderr.Bytes(), []byte("restored at tile")) {
		t.Fatalf("relaunched rank did not restore its checkpoint:\n%s", relaunched.stderr.String())
	}
	for r := 0; r < procs; r++ {
		if r == victim {
			continue
		}
		if err := ranks[r].wait(t, 60*time.Second); err != nil {
			t.Fatalf("rank %d: %v\n%s", r, err, ranks[r].stderr.String())
		}
	}

	var results []*procrun.RankResult
	for r := 0; r < procs; r++ {
		frag, err := readResult(filepath.Join(dir, fmt.Sprintf("rank%d.json", r)))
		if err != nil {
			t.Fatalf("rank %d result: %v", r, err)
		}
		results = append(results, frag)
	}
	got, _, err := procrun.Merge(prog, results)
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := want.MaxAbsDiff(got, prog.ScanSpace); diff != 0 {
		t.Fatalf("recovered run differs from reference by %g at %v", diff, at)
	}
}

// readResult loads the fragment a rank process wrote with -result.
func readResult(path string) (*procrun.RankResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r procrun.RankResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("result %s: %w", path, err)
	}
	return &r, nil
}
