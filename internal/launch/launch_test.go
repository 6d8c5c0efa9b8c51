package launch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/obs"
)

// The e2e tests launch REAL worker processes by re-executing this test
// binary: TestMain intercepts the relaunch before any test runs and
// hands the process to the named built-in task.
func TestMain(m *testing.M) {
	if task := os.Getenv(EnvTask); task != "" && IsWorker() {
		in, err := FromEnv()
		if err == nil {
			err = RunTask(task, in, core.Options{})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runJob launches n ranks of the given built-in task over transport and
// returns the job error plus the captured worker output.
func runJob(t *testing.T, n int, transport, task string, rpn int, timeout time.Duration) (error, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cmd := Cmd{
		N:            n,
		Prog:         exe,
		Transport:    transport,
		RanksPerNode: rpn,
		Timeout:      timeout,
		Env:          []string{EnvTask + "=" + task},
		Stdout:       &out,
		Stderr:       &out,
	}
	return cmd.Run(), out.String()
}

func TestLaunchPingpong(t *testing.T) {
	for _, tr := range []string{TransportSHM, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			if err, out := runJob(t, 4, tr, "pingpong", 0, time.Minute); err != nil {
				t.Fatalf("job failed: %v\n%s", err, out)
			}
		})
	}
}

func TestLaunchAllreduceWithTopology(t *testing.T) {
	for _, tr := range []string{TransportSHM, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			// rpn 2 over 8 ranks: four synthetic nodes, so the verified
			// Allreduce/Bcast run the hierarchical schedules end to end.
			if err, out := runJob(t, 8, tr, "allreduce", 2, time.Minute); err != nil {
				t.Fatalf("job failed: %v\n%s", err, out)
			}
		})
	}
}

// TestLaunchExitSafety is the exit-safety regression for unacked
// launched worlds: rank 0 sends a burst of single- and multi-fragment
// eager messages plus one rendezvous message and exits at once, while
// rank 1 is still asleep; rank 1 must then receive every payload intact
// (see taskExitSafety). A close that resets connections with data in
// flight, or a death verdict for rank 0 that overtakes its last
// messages, fails it.
func TestLaunchExitSafety(t *testing.T) {
	for _, tr := range []string{TransportSHM, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			err, out := runJob(t, 2, tr, "exitsafety", 0, time.Minute)
			if err != nil {
				t.Fatalf("job failed: %v\n%s", err, out)
			}
			if !strings.Contains(out, "intact") {
				t.Fatalf("rank 1 did not report its verification:\n%s", out)
			}
		})
	}
}

// TestLaunchLazyDialRing is the lazy-dialing acceptance check across
// real processes: ring-neighbor traffic must leave each rank holding at
// most its ring degree in connections, not a full mesh.
func TestLaunchLazyDialRing(t *testing.T) {
	err, out := runJob(t, 8, TransportSHM, "ringping", 0, time.Minute)
	if err != nil {
		t.Fatalf("job failed: %v\n%s", err, out)
	}
	if strings.Count(out, "conns") != 8 {
		t.Fatalf("expected a conns report from all 8 ranks:\n%s", out)
	}
}

// TestLaunchCrashPropagates: one rank exits 3 after startup; the
// launcher must kill the survivors (who would otherwise sleep 60s) and
// report the failing rank, promptly.
func TestLaunchCrashPropagates(t *testing.T) {
	start := time.Now()
	err, out := runJob(t, 4, TransportSHM, "crash", 0, time.Minute)
	if err == nil {
		t.Fatalf("crash job reported success:\n%s", out)
	}
	if !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("error does not name rank 2 / exit status 3: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("survivors were not killed promptly: job took %v", elapsed)
	}
}

// TestLaunchDebugDump: with MPICD_DEBUG=1, every survivor of the crash
// task dumps on the launcher's SIGTERM, and each dump is one header line
// followed by an obs.Observer JSON document holding the worker's
// counters, the stream core's connection gauge and the connection
// lifecycle events.
func TestLaunchDebugDump(t *testing.T) {
	for _, tr := range []string{TransportSHM, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			err, out, _ := runSupervised(t, 4, tr, "crash", nil, nil, time.Minute, EnvDebug+"=1")
			if err == nil {
				t.Fatalf("crash job reported success:\n%s", out)
			}
			for _, k := range []int{0, 1, 3} { // rank 2 exits without a dump
				doc := parseDump(t, out, k)
				if _, ok := doc.Metrics.Gauges[fmt.Sprintf("ucp.r%d.eager_sends", k)]; !ok {
					t.Errorf("rank %d dump has no ucp.r%d.eager_sends gauge", k, k)
				}
				if n := doc.Metrics.Gauges[fmt.Sprintf("fabric.r%d.conns", k)]; n < 1 {
					t.Errorf("rank %d dump: fabric.r%d.conns = %d, want >= 1", k, k, n)
				}
				installs := 0
				for _, ev := range doc.Trace {
					if ev.Kind == obs.EvConnInstall {
						installs++
					}
				}
				if installs == 0 {
					t.Errorf("rank %d dump holds no connection-install event: %+v", k, doc.Trace)
				}
			}
			if t.Failed() {
				t.Logf("job output:\n%s", out)
			}
		})
	}
}

// parseDump extracts rank k's debug dump from the launcher's prefixed
// output: the lines after its "rank k debug" header decode as one JSON
// document.
func parseDump(t *testing.T, out string, k int) (doc struct {
	Metrics obs.Snapshot `json:"metrics"`
	Trace   []obs.Event  `json:"trace"`
}) {
	t.Helper()
	prefix := fmt.Sprintf("[%d] ", k)
	var body []string
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		if body == nil {
			if strings.HasPrefix(rest, fmt.Sprintf("rank %d debug (", k)) {
				body = []string{}
			}
			continue
		}
		body = append(body, rest)
	}
	if body == nil {
		t.Fatalf("rank %d printed no debug dump header:\n%s", k, out)
	}
	if err := json.NewDecoder(strings.NewReader(strings.Join(body, "\n"))).Decode(&doc); err != nil {
		t.Fatalf("rank %d dump is not JSON: %v\n%s", k, err, out)
	}
	return doc
}

// TestLaunchWorldFacts: workers see the address table and placement the
// rendezvous assembled.
func TestLaunchConnectFacts(t *testing.T) {
	if err, out := runJob(t, 6, TransportTCP, "facts", 3, time.Minute); err != nil {
		t.Fatalf("job failed: %v\n%s", err, out)
	}
}

// TestLaunchScale32 exercises a mid-size world — large enough for
// multi-round tree schedules and connection storms, small enough for a
// unit-test budget.
func TestLaunchScale32(t *testing.T) {
	if testing.Short() {
		t.Skip("32-process job in -short mode")
	}
	if err, out := runJob(t, 32, TransportSHM, "allreduce", 8, 2*time.Minute); err != nil {
		t.Fatalf("job failed: %v\n%s", err, out)
	}
}

func TestFromEnvValidation(t *testing.T) {
	t.Setenv(EnvRank, "3")
	t.Setenv(EnvSize, "2")
	if _, err := FromEnv(); err == nil {
		t.Fatal("rank >= size accepted")
	}
	t.Setenv(EnvRank, "bogus")
	if _, err := FromEnv(); err == nil {
		t.Fatal("non-numeric rank accepted")
	}
	t.Setenv(EnvRank, "1")
	t.Setenv(EnvTransport, "")
	t.Setenv(EnvRend, "")
	t.Setenv(EnvDir, "")
	t.Setenv(EnvRPN, "")
	t.Setenv(EnvNode, "")
	in, err := FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if in.Transport != TransportSHM {
		t.Fatalf("default transport = %q, want shm", in.Transport)
	}
}

func TestCmdValidation(t *testing.T) {
	if err := (&Cmd{N: 0, Prog: "x"}).Run(); err == nil {
		t.Fatal("N=0 accepted")
	}
	if err := (&Cmd{N: 2}).Run(); err == nil {
		t.Fatal("empty Prog accepted")
	}
	if err := (&Cmd{N: 2, Prog: "x", Transport: "carrier-pigeon"}).Run(); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
