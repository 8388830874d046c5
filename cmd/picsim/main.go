// Command picsim runs one parallel PIC simulation from flags and prints a
// summary plus (optionally) the per-iteration history.
//
// Example — the paper's irregular 32-node configuration under the dynamic
// redistribution policy:
//
//	picsim -mesh 128x64 -n 32768 -p 32 -iters 200 \
//	       -dist irregular -policy dynamic -history
//
// Or the same physics in three dimensions over the dimension-generic
// pipeline:
//
//	picsim -dim 3 -mesh 32x32x32 -n 32768 -p 32 -iters 200 \
//	       -dist irregular -policy dynamic
//
// With -net the same simulation runs over real TCP sockets, one OS process
// per rank. The launcher form starts a rendezvous coordinator, re-executes
// itself once per rank, and supervises the world:
//
//	picsim -net 127.0.0.1:0 -mesh 32x16 -n 2048 -p 4 -iters 10 \
//	       -dist irregular -seed 7 -policy static
//
// -topology selects the communication topology. Sparse topologies assemble
// only the stencil + skeleton sockets (O(P·k) instead of O(P²)) and route
// redistribution traffic over topology-native protocols; the physics and
// the simulated times are byte-identical to the full mesh:
//
//	picsim -net 127.0.0.1:0 -topology neighbor-sparse -mesh 32x16 -n 2048 \
//	       -p 4 -iters 10 -dist irregular -seed 7 -policy static
//
// Adding -checkpoint-dir makes every rank write a CRC-guarded shard of its
// state on a fixed iteration cadence, and -recover turns the launcher
// elastic: a rank killed mid-run (kill -9 included) is respawned, rejoins
// through the rendezvous, and the whole world rolls back in lockstep to
// the latest complete checkpoint epoch and continues — with the same final
// Fingerprint an undisturbed run prints:
//
//	picsim -net 127.0.0.1:0 -mesh 32x16 -n 2048 -p 4 -iters 20 \
//	       -dist irregular -seed 7 -policy static \
//	       -checkpoint-dir /tmp/ckpt -checkpoint-every 5 -recover
//
// A single rank joins an existing coordinator with -rank (normally only the
// launcher does this, but it is how a world spreads across hosts), and
// -coordinate runs just the rendezvous service for such a hand-assembled
// world:
//
//	picsim -net host0:9999 -coordinate -p 4          # on host0
//	picsim -net host0:9999 -rank 2 -p 4 ...same simulation flags...
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"picpar"
	"picpar/internal/jobspec"
)

func main() {
	dim := flag.Int("dim", 2, "spatial dimensionality: 2 or 3")
	meshFlag := flag.String("mesh", "", "mesh size NXxNY (2-D, default 128x64) or NXxNYxNZ (3-D, default 32x32x32)")
	n := flag.Int("n", 32768, "number of particles")
	p := flag.Int("p", 32, "number of ranks (processors)")
	iters := flag.Int("iters", 200, "iterations")
	dist := flag.String("dist", "irregular", "distribution: uniform|irregular|twostream|beam|spike|collapse")
	indexing := flag.String("indexing", "hilbert", "particle ordering: hilbert|snake|rowmajor|morton")
	policyFlag := flag.String("policy", "dynamic", "redistribution policy: static|dynamic|periodic:<k>|adaptive|adaptive:<k>")
	strategyFlag := flag.String("strategy", "", "layout strategy the policy's firings rebuild into: equal-count|cost-weighted|eulerian (default equal-count; ignored by -policy adaptive, which chooses per firing)")
	table := flag.String("table", "direct", "duplicate-removal table: direct|hash")
	topology := flag.String("topology", "", "communication link set: full-mesh (default)|neighbor-sparse")
	seed := flag.Int64("seed", 1, "random seed")
	thermal := flag.Float64("thermal", 0.3, "thermal momentum spread (p/mc)")
	modern := flag.Bool("modern", false, "use modern-cluster cost model instead of CM-5")
	history := flag.Bool("history", false, "print per-iteration history")
	phases := flag.Bool("phases", false, "print per-phase communication/computation breakdown")
	diag := flag.Bool("energies", false, "record and print energy diagnostics")
	verify := flag.Bool("verify", false, "enable per-iteration invariant checking (charged compute, changes timings)")
	procs := flag.Int("procs", 0, "shared-memory workers per rank for the physics kernels; 0 = $PICPAR_PROCS or 1 (results are byte-identical for any count)")
	netAddr := flag.String("net", "", "run over TCP: coordinator address (host:port, port 0 picks one); launcher mode unless -rank is given")
	rank := flag.Int("rank", -1, "with -net: join the coordinator as this rank instead of launching the world")
	wallclock := flag.Bool("wallclock", false, "with -net: charge real elapsed time instead of the simulated cost model")
	coordinate := flag.Bool("coordinate", false, "with -net: run only the rendezvous coordinator (for ranks started by hand, e.g. on other hosts)")
	ckptDir := flag.String("checkpoint-dir", "", "write CRC-guarded checkpoint epochs under this directory (default $PICPAR_CKPT_DIR; empty disables)")
	ckptEvery := flag.Int("checkpoint-every", 0, "iterations between checkpoints when checkpointing is on (default 10)")
	ckptKeep := flag.Int("checkpoint-keep", 0, "complete checkpoint epochs to retain (default 2)")
	recoverFlag := flag.Bool("recover", false, "with -net: elastic recovery — respawn dead ranks and roll the world back to the latest complete checkpoint epoch")
	flag.Parse()

	if *meshFlag == "" {
		if *dim == 3 {
			*meshFlag = "32x32x32"
		} else {
			*meshFlag = "128x64"
		}
	}
	// Flags become a jobspec.Spec — the same description a picserve job
	// submission carries — so every entrypoint shares one flag→Config path.
	spec := jobspec.Spec{
		Dims:         *dim,
		Mesh:         *meshFlag,
		Particles:    *n,
		Ranks:        *p,
		Iterations:   *iters,
		Distribution: *dist,
		Indexing:     *indexing,
		Table:        *table,
		Topology:     *topology,
		Policy:       *policyFlag,
		Strategy:     *strategyFlag,
		Seed:         *seed,
		Thermal:      *thermal,
		Modern:       *modern,
		Workers:      *procs,
		Diagnostics:  *diag,
		Verify:       *verify,

		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		CheckpointKeep:  *ckptKeep,
		Recover:         *recoverFlag,
	}
	cfg, err := spec.Config()
	if err != nil {
		fatal(err)
	}

	var res *picpar.Result
	switch {
	case *netAddr != "" && *coordinate:
		// Rendezvous-only mode: assemble one world of -p hand-started
		// ranks, then exit (the mesh does not route through us).
		co, err := picpar.StartCoordinator(*netAddr, *p)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "picsim: coordinating world of %d ranks on %s\n", *p, co.Addr())
		if err := co.Serve(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "picsim: world assembled, coordinator done\n")
		return
	case *netAddr != "" && *rank >= 0:
		// One rank endpoint of a TCP world: join the coordinator and run.
		ncfg := picpar.NetConfig{Coordinator: *netAddr, Rank: *rank, Size: *p, WallClock: *wallclock}
		res, err = picpar.RunNet(ncfg, cfg)
		if err != nil {
			fatal(err)
		}
		if res == nil {
			return // only rank 0 reports
		}
	case *netAddr != "":
		// Launcher mode: coordinator plus one re-executed process per rank.
		// The -topology flag rides along to every rank child via childArgs;
		// the supervisor knows the world description so refused dials in a
		// sparse world are attributed to its configuration.
		if err := launchWorld(*netAddr, *p, *recoverFlag, *topology); err != nil {
			fatal(err)
		}
		return
	default:
		res, err = picpar.Run(cfg)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("picsim: mesh=%s particles=%d ranks=%d iterations=%d dist=%s indexing=%s policy=%s table=%s\n",
		*meshFlag, *n, *p, *iters, *dist, *indexing, *policyFlag, *table)
	fmt.Printf("  initial distribution: %10.4f s\n", res.InitTime)
	clockKind := "simulated"
	if *wallclock {
		clockKind = "wall-clock"
	}
	fmt.Printf("  total execution:      %10.4f s (%s)\n", res.TotalTime, clockKind)
	fmt.Printf("  computation (max):    %10.4f s\n", res.ComputeMax)
	fmt.Printf("  overhead:             %10.4f s\n", res.Overhead)
	fmt.Printf("  efficiency:           %10.4f\n", res.Efficiency)
	fmt.Printf("  redistributions:      %10d (%.4f s)\n", res.NumRedistributions, res.RedistTime)
	if len(res.RedistByStrategy) > 0 {
		names := make([]string, 0, len(res.RedistByStrategy))
		for name := range res.RedistByStrategy {
			names = append(names, name)
		}
		sort.Strings(names)
		var parts []string
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s:%d", name, res.RedistByStrategy[name]))
		}
		fmt.Printf("  redist strategies:    %10s\n", strings.Join(parts, " "))
	}
	fmt.Printf("  peak scatter traffic: %10d B, %d messages\n", res.MaxScatterBytes(), res.MaxScatterMsgs())
	// Full-precision pin for scripts (the golden gate greps this line).
	fmt.Printf("  TotalTime %.7f\n", res.TotalTime)
	// Physics fingerprint: order-sensitive FNV-64a over every rank's final
	// particle columns and field arrays. The recovery gate compares this
	// between a kill-and-recover run and an undisturbed one.
	fmt.Printf("  Fingerprint %016x\n", res.Fingerprint)

	if *phases {
		fmt.Printf("\nper-phase breakdown (max over ranks):\n%s", res.Stats.Format())
	}

	if *history {
		fmt.Printf("\n%6s %10s %10s %10s %8s %7s\n", "iter", "time(s)", "comp(s)", "maxBytes", "maxMsgs", "redist")
		for _, rec := range res.Records {
			mark := ""
			if rec.Redistributed {
				mark = fmt.Sprintf("* %.4fs", rec.RedistTime)
			}
			fmt.Printf("%6d %10.4f %10.4f %10d %8d %7s\n",
				rec.Iter, rec.Time, rec.Compute, rec.ScatterBytesSent, rec.ScatterMsgsSent, mark)
			if *diag && rec.FieldEnergy != 0 {
				fmt.Printf("       field energy %.6g, kinetic energy %.6g\n", rec.FieldEnergy, rec.KineticEnergy)
			}
		}
	}
}

// launchWorld is picsim's coordinator mode: it starts the rendezvous
// service on addr, re-executes this binary once per rank with the same
// simulation flags plus -net/-rank, prints each child's pid to stderr (so
// harnesses can kill a specific rank), and supervises the world. Without
// elastic recovery a dead rank surfaces as a nonzero exit with its peers'
// DeliveryError diagnostics on stderr within the backend's
// failure-detection window — never as a hang. With elastic recovery the
// coordinator keeps serving re-assembly rounds, a dead rank is respawned
// with its same identity, and the run continues from the latest complete
// checkpoint epoch.
func launchWorld(addr string, p int, elastic bool, topology string) error {
	co, err := picpar.StartCoordinator(addr, p)
	if err != nil {
		return err
	}
	defer co.Close()
	serveErr := make(chan error, 1)
	if elastic {
		go func() { serveErr <- co.ServeElastic() }()
	} else {
		go func() { serveErr <- co.Serve() }()
	}

	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("picsim: cannot re-execute self: %v", err)
	}
	base := childArgs()
	spawn := func(rank int) (*picpar.RankProc, error) {
		args := append(append([]string{}, base...),
			"-net", co.Addr(), "-rank", strconv.Itoa(rank), "-p", strconv.Itoa(p))
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "picsim: rank %d pid %d\n", rank, cmd.Process.Pid)
		return &picpar.RankProc{Rank: rank, Cmd: cmd}, nil
	}
	procs := make([]*picpar.RankProc, p)
	for k := 0; k < p; k++ {
		proc, err := spawn(k)
		if err != nil {
			for _, q := range procs[:k] {
				_ = q.Cmd.Process.Kill()
				_ = q.Cmd.Wait()
			}
			return fmt.Errorf("picsim: start rank %d: %v", k, err)
		}
		procs[k] = proc
	}
	var respawn picpar.RespawnFunc
	maxRespawns := 0
	if elastic {
		maxRespawns = 2 * p
		respawn = func(rank int) (*picpar.RankProc, error) {
			fmt.Fprintf(os.Stderr, "picsim: rank %d died, respawning\n", rank)
			return spawn(rank)
		}
	}
	worldDesc := fmt.Sprintf("topology %s, P=%d", topology, p)
	if topology == "" {
		worldDesc = fmt.Sprintf("topology full-mesh, P=%d", p)
	}
	if err := picpar.SuperviseRanksElastic(procs, 15*time.Second, respawn, maxRespawns, worldDesc); err != nil {
		return err
	}
	if elastic {
		// ServeElastic only returns once the listener closes; shut it down
		// now that every rank exited cleanly, then surface any serve error.
		co.Close()
		return <-serveErr
	}
	select {
	case err := <-serveErr:
		return err
	default:
		return nil
	}
}

// childArgs reproduces the explicitly-set simulation flags for a rank
// child, excluding the launcher-control flags that the child gets its own
// values for.
func childArgs() []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "net", "rank", "p":
			return
		}
		args = append(args, "-"+f.Name+"="+f.Value.String())
	})
	return args
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
