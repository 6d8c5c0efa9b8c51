package main

import (
	"fmt"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/ddt"
	"mpicd/internal/layout"
)

// Train-step shape: the halo is a strided vector of int64 (64 blocks of 8,
// stride 16: a 4 KiB face out of an 8 KiB image); the gradient allreduce
// moves 1 MiB, above the Rabenseifner threshold; the control allreduce
// moves 8 B on the binomial path and carries the stop flag.
const (
	haloBlocks, haloBlockLen, haloStride = 64, 8, 16
	gradCount                            = (1 << 20) / 8
	stopFlag                             = int64(1) << 40
	tagHaloRight, tagHaloLeft            = 21, 22
	trainRanks                           = 4
)

// trainer is one rank of the train-step workload: persistent halo
// requests and two persistent allreduces, driven step by step.
type trainer struct {
	c                    *core.Comm
	base                 int64 // seeded offset of every value
	vdt                  *core.Datatype
	plan                 *ddt.Plan
	sendImg, left, right []byte
	halos                []*core.PersistentRequest
	gs, gr, ss, sr       []byte
	ar, ars              *core.PersistentColl
}

func newTrainer(c *core.Comm, seed int64) (*trainer, error) {
	vec, err := ddt.Vector(haloBlocks, haloBlockLen, haloStride, ddt.Int64)
	if err != nil {
		return nil, err
	}
	extent := ((haloBlocks-1)*haloStride + haloBlockLen) * 8
	t := &trainer{c: c, base: seed % 1_000_003, vdt: core.FromDDT(vec), plan: vec.Plan(),
		sendImg: make([]byte, extent), left: make([]byte, extent), right: make([]byte, extent),
		gs: make([]byte, gradCount*8), gr: make([]byte, gradCount*8), ss: make([]byte, 8), sr: make([]byte, 8)}
	n := c.Size()
	l, r := (c.Rank()-1+n)%n, (c.Rank()+1)%n
	for _, mk := range []func() (*core.PersistentRequest, error){
		func() (*core.PersistentRequest, error) { return c.SendInit(t.sendImg, 1, t.vdt, r, tagHaloRight) },
		func() (*core.PersistentRequest, error) { return c.SendInit(t.sendImg, 1, t.vdt, l, tagHaloLeft) },
		func() (*core.PersistentRequest, error) { return c.RecvInit(t.left, 1, t.vdt, l, tagHaloRight) },
		func() (*core.PersistentRequest, error) { return c.RecvInit(t.right, 1, t.vdt, r, tagHaloLeft) },
	} {
		pr, err := mk()
		if err != nil {
			return nil, err
		}
		t.halos = append(t.halos, pr)
	}
	i64 := core.FromDDT(ddt.Int64)
	if t.ar, err = c.AllreduceInit(t.gs, t.gr, gradCount, i64, core.OpSumInt64); err != nil {
		return nil, err
	}
	if t.ars, err = c.AllreduceInit(t.ss, t.sr, 1, i64, core.OpSumInt64); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *trainer) free() {
	_ = t.ar.Free()
	_ = t.ars.Free()
}

func (t *trainer) haloValue(rank int, step int64, e int) int64 {
	return t.base + int64(rank)*1_000_000_000 + step*10_000 + int64(e)
}

// prepare writes this rank's step inputs: the halo face, the gradient
// contribution (rank r sends (r+1)*(base+step+i)) and the control word.
func (t *trainer) prepare(step int64, stop bool) {
	rank := t.c.Rank()
	for b := 0; b < haloBlocks; b++ {
		for e := 0; e < haloBlockLen; e++ {
			layout.PutI64(t.sendImg, (b*haloStride+e)*8, t.haloValue(rank, step, b*haloBlockLen+e))
		}
	}
	for i := 0; i < gradCount; i++ {
		layout.PutI64(t.gs, i*8, int64(rank+1)*(t.base+step+int64(i)))
	}
	ctl := int64(rank+1) * (step + 1)
	if stop {
		ctl += stopFlag
	}
	layout.PutI64(t.ss, 0, ctl)
	poison(t.left)
	poison(t.right)
	poison(t.gr)
	poison(t.sr)
}

// step is the timed part: halo exchange, gradient allreduce, control
// allreduce. Spans go to tr (nil when untraced).
func (t *trainer) step(tr *tracer, root int) error {
	sp := tr.begin("core.halo", root)
	err := core.StartAll(t.halos...)
	if err == nil {
		err = core.WaitAllPersistent(t.halos...)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	for _, pc := range []struct {
		name string
		p    *core.PersistentColl
	}{{"core.allreduce", t.ar}, {"core.allreduce_small", t.ars}} {
		sp = tr.begin(pc.name, root)
		err = pc.p.Start()
		if err == nil {
			err = pc.p.Wait()
		}
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// check verifies the step's outputs and reports whether the ranks agreed
// to stop.
func (t *trainer) check(step int64) (bool, error) {
	n := t.c.Size()
	for _, nb := range []struct {
		img  []byte
		rank int
	}{{t.left, (t.c.Rank() - 1 + n) % n}, {t.right, (t.c.Rank() + 1) % n}} {
		for b := 0; b < haloBlocks; b++ {
			for e := 0; e < haloBlockLen; e++ {
				want := t.haloValue(nb.rank, step, b*haloBlockLen+e)
				if got := layout.I64(nb.img, (b*haloStride+e)*8); got != want {
					return false, fmt.Errorf("train-step %d: halo from rank %d element %d = %d, want %d",
						step, nb.rank, b*haloBlockLen+e, got, want)
				}
			}
		}
	}
	rankSum := int64(n * (n + 1) / 2)
	for i := 0; i < gradCount; i++ {
		if got, want := layout.I64(t.gr, i*8), rankSum*(t.base+step+int64(i)); got != want {
			return false, fmt.Errorf("train-step %d: gradient[%d] = %d, want %d", step, i, got, want)
		}
	}
	ctl := layout.I64(t.sr, 0)
	stop := ctl >= stopFlag
	if stop {
		ctl -= stopFlag
	}
	if want := rankSum * (step + 1); ctl != want {
		return false, fmt.Errorf("train-step %d: control allreduce = %d, want %d", step, ctl, want)
	}
	return stop, nil
}

// runSteps drives steps until rank 0's deadline (or maxSteps) passes; the
// stop decision rides the control allreduce so every rank leaves after the
// same step. rec receives rank 0's step times.
func (t *trainer) runSteps(step *int64, deadline time.Time, maxSteps int, res *repResult,
	tr *tracer, rec func(ns int64)) error {
	for i := 0; ; i++ {
		stop := t.c.Rank() == 0 && (i+1 >= maxSteps || !time.Now().Before(deadline) || !tr.room(4))
		t.prepare(*step, stop)
		root := tr.begin("step", -1)
		start := time.Now()
		err := t.step(tr, root)
		d := time.Since(start)
		tr.end(root)
		if t.c.Rank() == 0 {
			res.Attempted++
		}
		if err != nil {
			res.fail(err)
			return err
		}
		agreed, err := t.check(*step)
		*step++
		if err != nil {
			res.fail(err)
			return err
		}
		if rec != nil && t.c.Rank() == 0 {
			rec(int64(d))
		}
		if agreed {
			return nil
		}
	}
}

// stepBytes is the application payload rank 0 hands to and gets back from
// the library in one step: two halo faces out and two in, the gradient
// and the control word in both directions.
const stepBytes = 4*haloBlocks*haloBlockLen*8 + 2*gradCount*8 + 2*8

// runTrain is one rank of a train-step rep. Rank 0 returns the rep's
// result; the other ranks return nil.
func runTrain(c *core.Comm, p params) (*repResult, error) {
	res := &repResult{Layers: map[string]float64{}}
	if err := trainRank(c, p, res); err != nil || c.Rank() != 0 {
		return nil, err
	}
	return res, nil
}

func trainRank(c *core.Comm, p params, res *repResult) error {
	var tr *tracer
	if p.Trace && c.Rank() == 0 {
		tr = newTracer(p.runID())
	}
	t, err := newTrainer(c, p.Seed)
	if err != nil {
		return err
	}
	defer t.free()
	var step int64
	if err := t.runSteps(&step, time.Time{}, 5, res, nil, nil); err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() == 0 {
		res.SetupNS = time.Now().UnixNano() - p.T0
	}

	budget := time.Duration(p.Seconds * float64(time.Second))
	if p.Trace {
		budget /= 2
	}
	// Only rank 0 reads the process's runtime figures: ReadMemStats stops
	// the world, and every rank shares this process.
	var g0, g1 goStats
	if c.Rank() == 0 {
		g0 = snapGo()
	}
	u0 := snapUCP(c.Worker())
	err = t.runSteps(&step, time.Now().Add(budget), 1<<62, res, nil, func(ns int64) {
		res.Ops = append(res.Ops, ns)
		res.Bytes += stepBytes
	})
	if err != nil {
		return err
	}
	// Every rank counts the messages it initiated; the process-wide malloc
	// count is divided by their sum.
	d := snapUCP(c.Worker()).sub(u0)
	if c.Rank() == 0 {
		g1 = snapGo()
	}
	sent, err := allreduceInt(c, d.eager+d.rndv+d.self)
	if err != nil {
		return err
	}
	if c.Rank() == 0 {
		d.layers(res.Layers)
		g1.layers(g0, res.Layers)
		res.Layers["core.allocs_per_msg"] = ratio(float64(g1.mallocs-g0.mallocs), float64(sent))
	}
	if !p.Trace {
		return nil
	}
	err = t.runSteps(&step, time.Now().Add(budget), tracedIters, res, tr, func(ns int64) {
		res.Traced = append(res.Traced, ns)
	})
	if err != nil || c.Rank() != 0 {
		return err
	}
	var regions float64
	for i := 0; i < 64; i++ {
		t.prepare(step, false)
		packed := make([]byte, t.plan.PackedSize(1))
		sp := tr.begin("ddt.pack", -1)
		_, err := t.plan.Pack(t.sendImg, 1, packed)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("ddt.unpack", -1)
			err = t.plan.Unpack(t.left, 1, packed)
			tr.end(sp)
		}
		res.Attempted++
		if err != nil {
			res.fail(err)
		} else if got, want := layout.I64(t.left, 8), t.haloValue(0, step, 1); got != want {
			res.fail(fmt.Errorf("halo plan round trip: element 1 = %d, want %d", got, want))
		}
		regions += float64(t.plan.RegionCount(1))
	}
	planLayers(res.Layers, regions, 64)
	res.Spans = tr.spans
	return nil
}

// allreduceInt sums v over the communicator (one-shot, outside timing).
func allreduceInt(c *core.Comm, v int64) (int64, error) {
	in, out := make([]byte, 8), make([]byte, 8)
	layout.PutI64(in, 0, v)
	if err := c.Allreduce(in, out, 1, core.FromDDT(ddt.Int64), core.OpSumInt64); err != nil {
		return 0, err
	}
	return layout.I64(out, 0), nil
}
