// Command tilerankd runs ONE rank of a tiled program as its own OS
// process, wired to its peers over the TCP mesh transport. A driver
// (tests, a launcher script) pre-allocates one listen address per rank,
// writes the shared rendezvous file, and starts one tilerankd per rank;
// each process compiles the identical spec, joins the mesh, runs its
// tile chain, and writes its result fragment — owned values in global
// scan order plus its row of the traffic matrix — for the driver to
// merge (internal/procrun.Merge) into the exact Global and Stats a
// single-process run would produce.
//
//	tilerankd -rank 0 -peers peers.json -spec spec.dsl -result rank0.json
//
// With -ckpt the rank snapshots its chain every -every committed tiles
// (gob, atomic rename); relaunching after a kill with the same flags
// builds the mesh from the rank's stream positions at the snapshot's
// slot, read off the compiled tables (the resume protocol's welcome counts
// must reflect the restored state, not zero), and resumes
// mid-conversation: peers resend what the dead process never
// consumed and suppress what it already has.
//
// SIGTERM/SIGINT abort the run via the transport-failure path: in-flight
// blocking calls unwind, the mesh closes, and the process exits 1 with
// the signal named on stderr — no result file is written.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tilespace/internal/compile"
	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/procrun"
)

func main() {
	var (
		rank       = flag.Int("rank", -1, "this process's rank (required)")
		peers      = flag.String("peers", "", "rendezvous file: world size and per-rank listen addresses (required)")
		spec       = flag.String("spec", "", "DSL spec file (required)")
		result     = flag.String("result", "", "result fragment output path (required)")
		overlap    = flag.Bool("overlap", false, "use non-blocking Isends (computation-communication overlap)")
		watchdog   = flag.Duration("watchdog", 30*time.Second, "deadlock watchdog (0 disables)")
		ckpt       = flag.String("ckpt", "", "checkpoint file; enables snapshot/restore when set")
		every      = flag.Int64("every", 2, "checkpoint cadence in committed tiles")
		peerwait   = flag.Duration("peerwait", 10*time.Second, "how long to wait for an absent peer before failing")
		heartbeat  = flag.Duration("heartbeat", 0, "liveness beacon interval (0 = transport default)")
		pointdelay = flag.Duration("pointdelay", 0, "injected per-point compute cost (test pacing)")
	)
	flag.Parse()
	if err := run(*rank, *peers, *spec, *result, *overlap,
		*watchdog, *ckpt, *every, *peerwait, *heartbeat, *pointdelay); err != nil {
		fmt.Fprintf(os.Stderr, "tilerankd: %v\n", err)
		os.Exit(1)
	}
}

func run(rank int, peersPath, specPath, resultPath string, overlap bool,
	watchdog time.Duration, ckptPath string, every int64,
	peerwait, heartbeat, pointdelay time.Duration) error {
	if rank < 0 || peersPath == "" || specPath == "" || resultPath == "" {
		return fmt.Errorf("-rank, -peers, -spec and -result are required")
	}
	source, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	// Every rank compiles the identical spec: one distribution and plan.
	art, err := compile.Compile(compile.Spec{Source: string(source)})
	if err != nil {
		return err
	}
	prog := art.Prog
	rv, err := procrun.ReadRendezvous(peersPath)
	if err != nil {
		return err
	}
	if rv.Size != prog.Dist.NumProcs() {
		return fmt.Errorf("rendezvous has %d ranks, spec distributes over %d", rv.Size, prog.Dist.NumProcs())
	}
	if rank >= rv.Size {
		return fmt.Errorf("rank %d outside world of %d", rank, rv.Size)
	}

	cfg := mpi.TCPConfig{
		Size:      rv.Size,
		Local:     []int{rank},
		Listen:    rv.Addrs[rank],
		Addrs:     rv.Addrs,
		Heartbeat: heartbeat,
		PeerWait:  peerwait,
	}
	var snap *exec.RankSnapshot
	if ckptPath != "" {
		if snap, err = procrun.LoadSnapshot(ckptPath); err != nil {
			return err
		}
	}
	if snap != nil {
		if snap.Rank != rank {
			return fmt.Errorf("checkpoint %s is a snapshot of rank %d, this process is rank %d", ckptPath, snap.Rank, rank)
		}
		// The welcome counts and outbound sequence numbers must describe
		// the restored conversation, not a fresh one: the compiled tables
		// give them at the snapshot's slot, and refuse a slot the rank's
		// chain does not have before any socket opens.
		if cfg.Recv, cfg.Sent, err = prog.StreamPositions(rank, snap.NextTile); err != nil {
			return fmt.Errorf("checkpoint %s: %w", ckptPath, err)
		}
		fmt.Fprintf(os.Stderr, "tilerankd: rank %d restored at tile %d from %s\n", rank, snap.NextTile, ckptPath)
	}
	mesh, err := mpi.NewTCPMesh(cfg)
	if err != nil {
		return err
	}
	world := mpi.NewRemoteWorld(rv.Size, []int{rank}, mpi.Options{Watchdog: watchdog}, mesh)
	defer world.Close()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigc
		world.Fail(fmt.Errorf("terminated by %v", sig))
	}()

	opt := exec.RunOptions{
		Overlap:    overlap,
		PointDelay: pointdelay,
		World:      world,
	}
	if ckptPath != "" {
		opt.Checkpoint = &exec.CheckpointOptions{
			Every:  every,
			Save:   func(s *exec.RankSnapshot) error { return procrun.SaveSnapshot(ckptPath, s) },
			Resume: snap,
		}
	}
	fmt.Fprintf(os.Stderr, "tilerankd: rank %d/%d listening on %s\n", rank, rv.Size, mesh.Addr())
	g, stats, err := prog.RunParallelOpts(opt)
	if err != nil {
		return err
	}
	// Finalize barrier: a rank whose chain ends early must not tear down
	// its mesh while peers still need its listener (their heartbeat and
	// resend links would surface the exit as a peer loss). Every process
	// passes this barrier before any process closes.
	// The flush matters: Barrier returns once the release frames are
	// queued, and exiting before the writer drains them would lose them.
	if err := world.RunE(func(c *mpi.Comm) { c.Barrier(); c.FlushWire() }); err != nil {
		return fmt.Errorf("finalize: %w", err)
	}

	values, err := procrun.OwnedValues(prog, g, rank)
	if err != nil {
		return err
	}
	wire, _ := world.WireStats()
	frag := &procrun.RankResult{
		Rank:    rank,
		Values:  values,
		Traffic: stats.PerRank[rank],
		Wire:    wire,
	}
	if err := procrun.WriteResult(resultPath, frag); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tilerankd: rank %d done: %d owned values, %d frames sent\n",
		rank, len(values), wire.FramesSent)
	return nil
}
