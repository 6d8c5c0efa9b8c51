package main

import (
	"unsafe"

	"mpicd/internal/serial"
	"mpicd/internal/workloads"
	"mpicd/mpi"
)

// planner is a kind whose messages are described by a derived datatype:
// the ddt probe packs and unpacks them with the datatype's compiled plan.
type planner interface {
	kind
	// planArgs returns the plan, the send image, the receive image and
	// the element count of a message of size parameter n, or a nil plan
	// when the kind's datatype is not derived.
	planArgs(n int) (*mpi.Plan, []byte, []byte, int64)
}

func structBytes(s []workloads.StructSimpleGo) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

func (k *structSliceKind) planArgs(n int) (*mpi.Plan, []byte, []byte, int64) {
	t, err := mpi.TypeOf[workloads.StructSimpleGo]()
	if err != nil {
		return nil, nil, nil, 0
	}
	return t.Plan(), structBytes(k.s[:n]), structBytes(k.r[:n]), int64(n)
}

func (k *structImageKind) planArgs(n int) (*mpi.Plan, []byte, []byte, int64) {
	t := k.dt.DDT()
	if t == nil {
		return nil, nil, nil, 0
	}
	return t.Plan(), k.s, k.r, int64(n)
}

func (k *ddtKind) planArgs(n int) (*mpi.Plan, []byte, []byte, int64) {
	return k.ins[n].Type.Plan(), k.s[n], k.r[n], 1
}

// kernelProbes times, on rank 0, the datatype plan kernels and the object
// serializer on two cycles of the workload's own messages, verifying each
// round trip.
func kernelProbes(pp *pinger, p params, m *mix) error {
	sched := m.schedule(p.Seed)
	var regions, msgs float64
	objects := 0
	for i := 0; i < 2*m.cycleLen(); i++ {
		ms := sched.next()
		pp.stamp++
		switch k := m.kinds[ms.k].(type) {
		case planner:
			plan, src, dst, count := k.planArgs(ms.n)
			if plan == nil {
				continue
			}
			k.prepare(ms.n, pp.stamp)
			packed := make([]byte, plan.PackedSize(count))
			sp := pp.tr.begin("ddt.pack", -1)
			_, err := plan.Pack(src, count, packed)
			pp.tr.end(sp)
			if err == nil {
				sp = pp.tr.begin("ddt.unpack", -1)
				err = plan.Unpack(dst, count, packed)
				pp.tr.end(sp)
			}
			if err == nil {
				err = k.verify(ms.n, pp.stamp)
			}
			pp.res.Attempted++
			if err != nil {
				pp.res.fail(err)
			}
			regions += float64(plan.RegionCount(count))
			msgs++
		case *objectKind:
			serialProbe(pp, k.object(ms.n, pp.stamp))
			objects++
		}
	}
	// A mix without complex objects still measures the serializer, on the
	// paper's Figure 9 object at 1 MiB (eight 128 KiB arrays).
	if objects == 0 {
		k := newObjectKind(8, byte(p.Seed)|1, true)
		for i := 0; i < 16; i++ {
			pp.stamp++
			serialProbe(pp, k.object(8, pp.stamp))
		}
	}
	planLayers(pp.res.Layers, regions, msgs)
	return nil
}

// serialProbe times DumpsOOB and LoadsOOB on obj and verifies the decoded
// object.
func serialProbe(pp *pinger, obj map[string]any) {
	sp := pp.tr.begin("serial.encode", -1)
	header, oob, err := serial.DumpsOOB(obj, serial.DefaultThreshold)
	pp.tr.end(sp)
	var got any
	if err == nil {
		sp = pp.tr.begin("serial.decode", -1)
		got, err = serial.LoadsOOB(header, oob)
		pp.tr.end(sp)
	}
	if err == nil {
		err = equalObject(got, obj)
	}
	pp.res.Attempted++
	if err != nil {
		pp.res.fail(err)
	}
}

// planLayers records the region count per derived message and the
// process's plan-cache figures.
func planLayers(l map[string]float64, regions, msgs float64) {
	hits, misses, compileNS := mpi.PlanCacheStats()
	l["ddt.regions_per_msg"] = ratio(regions, msgs)
	l["ddt.plan_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	l["ddt.compile_us"] = ratio(float64(compileNS), float64(misses)) / 1e3
}
