package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
	"mpicd/internal/workloads"
	"mpicd/mpi"
)

// params is what the orchestrator hands every rank of one rep.
type params struct {
	Workload  string  `json:"workload"`
	Mix       string  `json:"mix"` // small, large or train
	Transport string  `json:"transport"`
	Seed      int64   `json:"seed"`
	Rep       int     `json:"rep"`
	Seconds   float64 `json:"seconds"` // timed-loop budget of this rep
	Trace     bool    `json:"trace"`
	T0        int64   `json:"t0_unix_ns"` // when the orchestrator started the rep
	Dir       string  `json:"dir"`        // session directory (launched ranks)
}

func (p params) runID() string { return fmt.Sprintf("%s/seed%d/rep%d", p.Workload, p.Seed, p.Rep) }

// repResult is rank 0's account of one rep.
type repResult struct {
	SetupNS   int64              `json:"setup_ns"`
	Ops       []int64            `json:"ops_ns"` // untraced timed loop, in order
	Bytes     int64              `json:"bytes"`  // payload bytes moved by Ops, both directions
	Traced    []int64            `json:"traced_ns"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	RSSKiB    int64              `json:"rss_kib"` // summed peak RSS of launched rank processes
}

// fail records a failed operation; the first few errors are kept.
func (r *repResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// rankEnv is what a rank knows about how it was started.
type rankEnv struct {
	sameProcess bool           // both ranks share this process (inproc)
	fab         *fabric.Inproc // inproc: the NIC-only world for the fabric probe
	spawnNS     int64          // launched: orchestrator start to worker entry
	connectNS   int64          // launched: mpi.InitFromEnv duration
}

// peerInfo is what rank 1 reports to rank 0 at the end of a rep.
type peerInfo struct {
	Mallocs   uint64 `json:"mallocs"`
	RSSKiB    int64  `json:"rss_kib"`
	SpawnNS   int64  `json:"spawn_ns"`
	ConnectNS int64  `json:"connect_ns"`
}

const (
	tagData = 11
	tagCtl  = 12
	tagKey  = 13
	tagInfo = 14
	// ucpTag is the transport tag of the ucp probe: a context id no
	// communicator uses, matched exactly.
	ucpTag = ucp.Tag(0xFFFE)<<48 | 0x7ABE
	// probePacket is the packet kind of the NIC-level probe (below the
	// fabric's reserved range).
	probePacket fabric.Kind = 5
)

// derived is set once this process has derived the workload's Go types,
// so only the first (cold) derivation is timed.
var derived atomic.Bool

// resetPeakRSS starts a new peak-RSS interval for this process: on Linux,
// writing 5 to /proc/self/clear_refs resets VmHWM to the current RSS. Where
// that is not possible, peakRSSKiB reports the process's lifetime peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSKiB returns this process's peak resident memory in KiB since the
// last resetPeakRSS (VmHWM), or since it started.
func peakRSSKiB() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64); err == nil {
					return kib
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// pinger runs one rank's side of the closed ping-pong loop.
type pinger struct {
	c     *core.Comm
	peer  int
	res   *repResult
	tr    *tracer
	stamp uint64
	ctl   []byte
	ctls  int64 // control messages rank 0 sent
}

// loop is the closed loop: rank 0 sends each message from next, times until
// the echo is back and verifies it outside the timed interval; rank 1
// echoes. After every chunk rank 0 tells rank 1 on tagCtl whether another
// chunk follows, which it does until the deadline or maxIters. rec receives
// each timed round trip and the payload bytes it moved.
func (p *pinger) loop(next func() (kind, int), chunk int, deadline time.Time, maxIters int,
	names [3]string, rec func(ns, bytes int64)) error {
	c, iters := p.c, 0
	for {
		for i := 0; i < chunk; i++ {
			k, n := next()
			if c.Rank() != 0 {
				if err := k.recv(c, n, p.peer, tagData); err != nil {
					return err
				}
				if err := k.echo(c, n, p.peer, tagData); err != nil {
					return err
				}
				continue
			}
			p.stamp++
			k.prepare(n, p.stamp)
			root := p.tr.begin(names[0], -1)
			t := time.Now()
			sp := p.tr.begin(names[1], root)
			err := k.send(c, n, p.peer, tagData)
			p.tr.end(sp)
			if err == nil {
				sp = p.tr.begin(names[2], root)
				err = k.recv(c, n, p.peer, tagData)
				p.tr.end(sp)
			}
			d := time.Since(t)
			p.tr.end(root)
			p.res.Attempted++
			if err != nil {
				p.res.fail(err)
				return err
			}
			if err := k.verify(n, p.stamp); err != nil {
				p.res.fail(err)
			}
			if rec != nil {
				rec(int64(d), 2*k.payload(n))
			}
		}
		iters += chunk
		if c.Rank() == 0 {
			p.ctl[0] = 0
			if time.Now().Before(deadline) && iters < maxIters && p.tr.room(3*chunk) {
				p.ctl[0] = 1
			}
			if err := c.Send(p.ctl, 1, core.TypeBytes, p.peer, tagCtl); err != nil {
				return err
			}
			p.ctls++
		} else if _, err := c.Recv(p.ctl, 1, core.TypeBytes, p.peer, tagCtl); err != nil {
			return err
		}
		if p.ctl[0] == 0 {
			return nil
		}
	}
}

// ucpStats is a snapshot of the transport counters the per-layer metrics use.
type ucpStats struct {
	eager, rndv, self, frags, acks, rexmit, timeouts, unexp, posted, striped, seq, segs int64
}

func snapUCP(w *ucp.Worker) ucpStats {
	s := w.Stats()
	return ucpStats{s.EagerSends.Load(), s.RndvSends.Load(), s.SelfSends.Load(), s.EagerFragments.Load(),
		s.AcksSent.Load(), s.Retransmits.Load(), s.Timeouts.Load(), s.UnexpectedHits.Load(),
		s.PostedHits.Load(), s.StripedPulls.Load(), s.SequentialPulls.Load(), s.PullStripeSegs.Load()}
}

func (a ucpStats) sub(b ucpStats) ucpStats {
	return ucpStats{a.eager - b.eager, a.rndv - b.rndv, a.self - b.self, a.frags - b.frags, a.acks - b.acks,
		a.rexmit - b.rexmit, a.timeouts - b.timeouts, a.unexp - b.unexp, a.posted - b.posted,
		a.striped - b.striped, a.seq - b.seq, a.segs - b.segs}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers turns a counter delta into the ucp per-layer metrics. Per-message
// figures are per message this worker initiated.
func (d ucpStats) layers(out map[string]float64) {
	msgs := float64(d.eager + d.rndv + d.self)
	out["ucp.eager_per_msg"] = ratio(float64(d.eager), msgs)
	out["ucp.rndv_per_msg"] = ratio(float64(d.rndv), msgs)
	out["ucp.frags_per_msg"] = ratio(float64(d.frags), msgs)
	out["ucp.acks_per_msg"] = ratio(float64(d.acks), msgs)
	out["ucp.retransmits"] = float64(d.rexmit)
	out["ucp.timeouts"] = float64(d.timeouts)
	out["ucp.unexpected_ratio"] = ratio(float64(d.unexp), float64(d.unexp+d.posted))
	out["ucp.striped_pull_ratio"] = ratio(float64(d.striped), float64(d.striped+d.seq))
	out["ucp.segs_per_pull"] = ratio(float64(d.segs), float64(d.striped))
}

// goStats snapshots the runtime figures of the go layer.
type goStats struct {
	gcs                       uint32
	pauseNS, heapSys, mallocs uint64
}

func snapGo() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{ms.NumGC, ms.PauseTotalNs, ms.HeapSys, ms.Mallocs}
}

func (a goStats) layers(b goStats, out map[string]float64) {
	out["go.gc_cycles"] = float64(a.gcs - b.gcs)
	out["go.gc_pause_ms"] = float64(a.pauseNS-b.pauseNS) / 1e6
	out["go.heap_peak_MiB"] = float64(a.heapSys) / (1 << 20)
}

// runPingpong is one rank of a ping-pong workload rep. Rank 0 returns the
// rep's result; rank 1 returns nil.
func runPingpong(c *core.Comm, p params, env rankEnv) (*repResult, error) {
	res := &repResult{Layers: map[string]float64{}}
	var tr *tracer
	if p.Trace && c.Rank() == 0 {
		tr = newTracer(p.runID())
	}
	pp := &pinger{c: c, peer: 1 - c.Rank(), res: res, ctl: make([]byte, 1)}

	// Set-up: derive the Go types (timed when this process has not derived
	// them yet), build and fill the mix, warm every path, then meet.
	if c.Rank() == 0 && !derived.Load() {
		sp := tr.begin("derive.typeof", -1)
		if _, err := mpi.TypeOf[workloads.StructSimpleGo](); err != nil {
			return nil, err
		}
		if _, err := mpi.TypeOf[workloads.StructVecGo](); err != nil {
			return nil, err
		}
		tr.end(sp)
		derived.Store(true)
	}
	var m *mix
	chunk := 64
	if p.Mix == "small" {
		m = smallMix(p.Seed)
	} else {
		var err error
		if m, err = largeMix(p.Seed, c.Rank() == 0); err != nil {
			return nil, err
		}
		chunk = 2
	}
	sched := m.schedule(p.Seed)
	next := func() (kind, int) { ms := sched.next(); return m.kinds[ms.k], ms.n }
	noNames := [3]string{}
	warm := 2 * m.cycleLen()
	if err := pp.loop(next, warm, time.Time{}, 0, noNames, nil); err != nil {
		return nil, err
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	res.SetupNS = time.Now().UnixNano() - p.T0

	budget := time.Duration(p.Seconds * float64(time.Second))
	if p.Trace {
		budget /= 2
	}
	g0, u0, ctls := snapGo(), snapUCP(c.Worker()), pp.ctls
	err := pp.loop(next, chunk, time.Now().Add(budget), 1<<62, noNames, func(ns, b int64) {
		res.Ops = append(res.Ops, ns)
		res.Bytes += b
	})
	if err != nil {
		return nil, err
	}
	g1, u1, ctls := snapGo(), snapUCP(c.Worker()), pp.ctls-ctls
	peer := peerInfo{Mallocs: g1.mallocs - g0.mallocs, RSSKiB: peakRSSKiB(), SpawnNS: env.spawnNS, ConnectNS: env.connectNS}

	if p.Trace {
		pp.tr = tr
		rtt := [3]string{"rtt", "core.send", "core.recv"}
		err := pp.loop(next, chunk, time.Now().Add(budget), tracedIters, rtt, func(ns, _ int64) {
			res.Traced = append(res.Traced, ns)
		})
		if err != nil {
			return nil, err
		}
		if err := probes(pp, p, env, m); err != nil {
			return nil, err
		}
	}

	// Rank 1 reports its side and waits for rank 0's last word, so neither
	// process closes while the other still owes it an acknowledgement.
	if c.Rank() != 0 {
		if env.sameProcess {
			peer = peerInfo{}
		}
		b, err := json.Marshal(peer)
		if err != nil {
			return nil, err
		}
		if err := c.Send(b, -1, core.TypeBytes, 0, tagInfo); err != nil {
			return nil, err
		}
		_, err = c.Recv(pp.ctl, 1, core.TypeBytes, 0, tagInfo)
		return nil, err
	}
	st, err := c.Probe(1, tagInfo)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Bytes)
	if _, err := c.Recv(buf, -1, core.TypeBytes, 1, tagInfo); err != nil {
		return nil, err
	}
	var other peerInfo
	if err := json.Unmarshal(buf, &other); err != nil {
		return nil, err
	}
	if err := c.Send(pp.ctl, 1, core.TypeBytes, 1, tagInfo); err != nil {
		return nil, err
	}
	if !env.sameProcess {
		res.RSSKiB = peer.RSSKiB + other.RSSKiB
	}
	msgs := float64(2 * len(res.Ops))
	res.Layers["core.allocs_per_msg"] = ratio(float64(peer.Mallocs+other.Mallocs), msgs)
	// The loop's control messages are one-fragment eager sends; leave
	// them out of the per-message counters.
	d := u1.sub(u0)
	d.eager -= ctls
	d.frags -= ctls
	d.layers(res.Layers)
	g1.layers(g0, res.Layers)
	res.Layers["launch.spawn_s"] = float64(max(peer.SpawnNS, other.SpawnNS)) / 1e9
	res.Layers["launch.connect_s"] = float64(max(peer.ConnectNS, other.ConnectNS)) / 1e9
	if tr != nil {
		res.Spans = tr.spans
		spanLayers(res)
	}
	return res, nil
}

// spanLayers derives the span-based per-layer metrics of a traced rep.
func spanLayers(res *repResult) {
	l, sp := res.Layers, res.Spans
	p50 := func(name, parent string) float64 { v, _ := spanP50us(sp, name, parent); return v }
	if v, ok := spanP50us(sp, "derive.typeof", ""); ok {
		l["derive.typeof_us"] = v
	}
	loop := "rtt"
	if _, ok := spanP50us(sp, "rtt", ""); !ok { // train-step: no ping-pong loop, use the core probe
		loop = "probe.core.rtt"
	}
	l["core.send_us"] = p50("core.send", loop)
	l["core.recv_wait_us"] = p50("core.recv", loop)
	for _, n := range []string{"core.halo", "core.allreduce", "core.allreduce_small",
		"ddt.pack", "ddt.unpack", "serial.encode", "serial.decode"} {
		l[n+"_us"] = p50(n, "")
	}
	l["core.rtt_us"] = p50("probe.core.rtt", "")
	l["ucp.rtt_us"] = p50("probe.ucp.rtt", "")
	l["fabric.rtt_us"] = p50("probe.fabric.rtt", "")
	l["self.core_us"] = l["core.rtt_us"] - l["ucp.rtt_us"]
	l["self.ucp_us"] = l["ucp.rtt_us"] - l["fabric.rtt_us"]
	if v, ok := spanP50us(sp, "probe.fabric.get", ""); ok {
		l["fabric.get_MiBps"] = float64(getBytes) / (1 << 20) / (v / 1e6)
	}
}

// --- probes -------------------------------------------------------------------

// tracedIters bounds the traced loop so that its spans and the probes'
// fit in maxSpans.
const tracedIters = 4000

// getBytes is the size of the fabric Get probe.
const getBytes = 4 << 20

// probeIters bounds each probe loop; probeBudget bounds its wall time.
const (
	probeIters  = 2000
	probeBudget = 250 * time.Millisecond
)

// probes runs the per-layer probes of a traced rep on both ranks: contiguous
// bytes of the small mix's sizes through core, ucp and a NIC-only fabric
// world, and a 4 MiB fabric Get. These are properties of the transport, so
// every workload on it measures them the same way. When kernels is non-nil,
// rank 0 then times the datatype and serialization kernels on that mix's
// own messages.
func probes(pp *pinger, p params, env rankEnv, kernels *mix) error {
	c := pp.c
	const chunk = 64
	small := smallMix(p.Seed)
	sizes := small.schedule(p.Seed)
	nextSize := func() int { ms := sizes.next(); return int(small.kinds[ms.k].payload(ms.n)) }
	rng := rand.New(rand.NewSource(p.Seed ^ 0x9e3779b9))
	ck := newBytesKind(smallHi, rng)
	next := func() (kind, int) { return ck, nextSize() }
	names := [3]string{"probe.core.rtt", "core.send", "core.recv"}
	if err := pp.loop(next, chunk, time.Now().Add(probeBudget), probeIters, names, nil); err != nil {
		return err
	}

	uk := &ucpKind{w: c.Worker(), bytesKind: *newBytesKind(smallHi, rng)}
	next = func() (kind, int) { return uk, nextSize() }
	names = [3]string{"probe.ucp.rtt", "ucp.send", "ucp.recv"}
	if err := pp.loop(next, chunk, time.Now().Add(probeBudget), probeIters, names, nil); err != nil {
		return err
	}

	nic, closeNIC, err := nicWorld(c, p, env)
	if err != nil {
		return err
	}
	fk := &fabricKind{nic: nic, peer: pp.peer, bytesKind: *newBytesKind(smallHi, rng)}
	next = func() (kind, int) { return fk, nextSize() }
	names = [3]string{"probe.fabric.rtt", "fabric.send", "fabric.recv"}
	err = pp.loop(next, chunk, time.Now().Add(probeBudget), probeIters, names, nil)
	if err == nil {
		err = getProbe(pp, nic, rng)
	}
	if err2 := c.Barrier(); err == nil {
		err = err2
	}
	closeNIC()
	if err != nil {
		return err
	}
	if kernels != nil && c.Rank() == 0 {
		return kernelProbes(pp, p, kernels)
	}
	return nil
}

// ucpKind moves contiguous bytes straight through the transport worker.
type ucpKind struct {
	w *ucp.Worker
	bytesKind
}

func (k *ucpKind) name() string { return "ucp-bytes" }
func (k *ucpKind) xfer(n, peer int, buf []byte, send bool) error {
	var req *ucp.Request
	var err error
	if send {
		req, err = k.w.Send(peer, ucpTag, ucp.Contig{}, buf[:n], int64(n), 0, ucp.ProtoAuto)
	} else {
		req, err = k.w.Recv(peer, ucpTag, ^ucp.Tag(0), ucp.Contig{}, buf[:n], int64(n))
	}
	if err != nil {
		return err
	}
	return req.Wait()
}
func (k *ucpKind) send(_ *core.Comm, n, dst, _ int) error { return k.xfer(n, dst, k.s, true) }
func (k *ucpKind) recv(_ *core.Comm, n, src, _ int) error { return k.xfer(n, src, k.r, false) }
func (k *ucpKind) echo(_ *core.Comm, n, dst, _ int) error { return k.xfer(n, dst, k.r, true) }

// fabricKind moves contiguous bytes as one raw NIC packet each (the small
// mix fits a fragment), on a world with no transport worker.
type fabricKind struct {
	nic  fabric.NIC
	peer int
	bytesKind
}

func (k *fabricKind) name() string { return "fabric-bytes" }
func (k *fabricKind) put(buf []byte, n int) error {
	return k.nic.Send(k.peer, fabric.Header{Kind: probePacket, Total: int64(n)}, buf[:n])
}
func (k *fabricKind) send(_ *core.Comm, n, _, _ int) error { return k.put(k.s, n) }
func (k *fabricKind) echo(_ *core.Comm, n, _, _ int) error { return k.put(k.r, n) }
func (k *fabricKind) recv(_ *core.Comm, n, _, _ int) error {
	pkt, ok := k.nic.Recv()
	if !ok {
		return fmt.Errorf("fabric probe: NIC closed")
	}
	defer pkt.Release()
	if pkt.Hdr.Kind != probePacket || len(pkt.Payload) != n {
		return fmt.Errorf("fabric probe: unexpected packet kind %d with %d bytes, want %d", pkt.Hdr.Kind, len(pkt.Payload), n)
	}
	copy(k.r, pkt.Payload)
	return nil
}

// nicWorld brings up the NIC-only two-rank world of the fabric probe on the
// workload's transport.
func nicWorld(c *core.Comm, p params, env rankEnv) (fabric.NIC, func(), error) {
	switch p.Transport {
	case "inproc":
		return env.fab.NIC(c.Rank()), func() {}, nil
	case "shm":
		nic, err := fabric.NewSHM(c.Rank(), 2, filepath.Join(p.Dir, "fab"), fabric.Config{})
		if err != nil {
			return nil, nil, err
		}
		return nic, func() { nic.Close() }, c.Barrier()
	}
	nic, err := fabric.ListenTCP(c.Rank(), 2, "127.0.0.1:0", fabric.Config{})
	if err != nil {
		return nil, nil, err
	}
	mine := []byte(nic.Addr())
	theirs := make([]byte, 256)
	var st core.Status
	if c.Rank() == 0 {
		if err = c.Send(mine, -1, core.TypeBytes, 1, tagKey); err == nil {
			st, err = c.Recv(theirs, -1, core.TypeBytes, 1, tagKey)
		}
	} else if st, err = c.Recv(theirs, -1, core.TypeBytes, 0, tagKey); err == nil {
		err = c.Send(mine, -1, core.TypeBytes, 0, tagKey)
	}
	if err != nil {
		nic.Close()
		return nil, nil, err
	}
	addrs := []string{string(mine), string(theirs[:st.Bytes])}
	if c.Rank() == 1 {
		addrs[0], addrs[1] = addrs[1], addrs[0]
	}
	if err := nic.Join(addrs); err != nil {
		nic.Close()
		return nil, nil, err
	}
	return nic, func() { nic.Close() }, nil
}

// getProbe times NIC.Get of a 4 MiB region rank 1 registered, verifying
// every pull.
func getProbe(pp *pinger, nic fabric.NIC, rng *rand.Rand) error {
	c := pp.c
	src := make([]byte, getBytes)
	seeded(src, rng)
	key := make([]byte, 8)
	if c.Rank() == 1 {
		k := nic.Register(fabric.Bytes(src))
		defer nic.Deregister(k)
		stampBytes(key, k)
		if err := c.Send(key, 8, core.TypeBytes, 0, tagKey); err != nil {
			return err
		}
		_, err := c.Recv(key, 8, core.TypeBytes, 0, tagKey) // rank 0 is done
		return err
	}
	if _, err := c.Recv(key, 8, core.TypeBytes, 1, tagKey); err != nil {
		return err
	}
	k := uint64(0)
	for i := 7; i >= 0; i-- {
		k = k<<8 | uint64(key[i])
	}
	dst := make([]byte, getBytes)
	deadline := time.Now().Add(probeBudget)
	for i := 0; i < 3 || (i < 200 && time.Now().Before(deadline)); i++ {
		poison(dst)
		sp := pp.tr.begin("probe.fabric.get", -1)
		err := nic.Get(1, k, 0, fabric.Bytes(dst), 0, getBytes)
		pp.tr.end(sp)
		pp.res.Attempted++
		if err != nil {
			pp.res.fail(err)
			return err
		}
		if !bytes.Equal(dst, src) {
			pp.res.fail(fmt.Errorf("fabric get: pulled bytes differ from the registered region"))
		}
	}
	return c.Send(key, 8, core.TypeBytes, 1, tagKey)
}
