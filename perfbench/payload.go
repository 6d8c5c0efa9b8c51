package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"mpicd/internal/core"
	"mpicd/internal/ddtbench"
	"mpicd/internal/serial"
	"mpicd/internal/workloads"
	"mpicd/mpi"
)

// kind is one message type of a ping-pong mix, bound to preallocated
// buffers. n is the kind's size parameter (bytes, elements, subvectors,
// instance index or arrays, depending on the kind). Rank 0 sends its send
// image and receives the echo into its receive image; rank 1 receives and
// echoes what it got. prepare and verify run outside the timed interval.
type kind interface {
	name() string
	payload(n int) int64 // application bytes one message carries
	prepare(n int, stamp uint64)
	send(c *core.Comm, n, dst, tag int) error
	recv(c *core.Comm, n, src, tag int) error
	echo(c *core.Comm, n, dst, tag int) error
	verify(n int, stamp uint64) error
}

// poison overwrites b with a byte pattern the seeded fills never produce
// in full, so a receive that fails to write shows up as a mismatch.
func poison(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = 0xA5
	for i := 1; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

func seeded(b []byte, rng *rand.Rand) {
	_, _ = rng.Read(b) // (*rand.Rand).Read never fails
}

// stampBytes writes the iteration stamp into the first bytes of b, so an
// echo of a stale buffer cannot pass verification.
func stampBytes(b []byte, stamp uint64) {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], stamp)
	copy(b, s[:])
}

func mismatch(k kind, n int, what string) error {
	return fmt.Errorf("%s (n=%d): %s differs from the expected payload", k.name(), n, what)
}

// --- contiguous bytes ---------------------------------------------------------

type bytesKind struct{ s, r []byte }

func newBytesKind(max int, rng *rand.Rand) *bytesKind {
	k := &bytesKind{s: make([]byte, max), r: make([]byte, max)}
	seeded(k.s, rng)
	return k
}

func (k *bytesKind) name() string             { return "bytes" }
func (k *bytesKind) payload(n int) int64      { return int64(n) }
func (k *bytesKind) prepare(n int, st uint64) { stampBytes(k.s[:n], st); poison(k.r[:n]) }
func (k *bytesKind) send(c *core.Comm, n, dst, tag int) error {
	return c.Send(k.s[:n], int64(n), core.TypeBytes, dst, tag)
}
func (k *bytesKind) recv(c *core.Comm, n, src, tag int) error {
	_, err := c.Recv(k.r[:n], int64(n), core.TypeBytes, src, tag)
	return err
}
func (k *bytesKind) echo(c *core.Comm, n, dst, tag int) error {
	return c.Send(k.r[:n], int64(n), core.TypeBytes, dst, tag)
}
func (k *bytesKind) verify(n int, _ uint64) error {
	if !bytes.Equal(k.r[:n], k.s[:n]) {
		return mismatch(k, n, "echo")
	}
	return nil
}

// --- []StructSimpleGo through the typed facade --------------------------------

type structSliceKind struct{ s, r []workloads.StructSimpleGo }

func newStructSliceKind(max int, rng *rand.Rand) *structSliceKind {
	k := &structSliceKind{s: make([]workloads.StructSimpleGo, max), r: make([]workloads.StructSimpleGo, max)}
	for i := range k.s {
		k.s[i] = workloads.StructSimpleGo{A: rng.Int31(), B: rng.Int31(), C: rng.Int31(), D: rng.NormFloat64()}
	}
	return k
}

func (k *structSliceKind) name() string        { return "struct-simple-slice" }
func (k *structSliceKind) payload(n int) int64 { return int64(n) * workloads.StructSimplePacked }
func (k *structSliceKind) prepare(n int, st uint64) {
	k.s[0].A = int32(st)
	for i := range k.r[:n] {
		k.r[i] = workloads.StructSimpleGo{A: -1, B: -1, C: -1, D: math.NaN()}
	}
}
func (k *structSliceKind) send(c *core.Comm, n, dst, tag int) error {
	return mpi.SendSlice(c, k.s[:n], dst, tag)
}
func (k *structSliceKind) recv(c *core.Comm, n, src, tag int) error {
	_, err := mpi.RecvSlice(c, k.r[:n], src, tag)
	return err
}
func (k *structSliceKind) echo(c *core.Comm, n, dst, tag int) error {
	return mpi.SendSlice(c, k.r[:n], dst, tag)
}
func (k *structSliceKind) verify(n int, _ uint64) error {
	for i := range k.s[:n] {
		if k.r[i] != k.s[i] {
			return mismatch(k, n, fmt.Sprintf("element %d", i))
		}
	}
	return nil
}

// --- struct images (struct-simple derived, struct-vec custom) -----------------

// structImageKind sends count elements of a C-layout struct image. Only the
// field bytes travel; the interior gap [gapLo, gapHi) of each element (after
// the three int32 fields, before the float64) stays poisoned on the receive
// side and is not compared.
type structImageKind struct {
	label  string
	dt     *core.Datatype
	extent int
	packed int
	s, r   []byte
}

const gapLo, gapHi = 12, 16

func newStructImageKind(label string, dt *core.Datatype, extent, packed, maxCount int,
	fill func(img []byte, count int, seed int32), seed int32, sender bool) *structImageKind {
	k := &structImageKind{label: label, dt: dt, extent: extent, packed: packed, r: make([]byte, extent*maxCount)}
	if sender {
		k.s = make([]byte, extent*maxCount)
		fill(k.s, maxCount, seed)
	}
	return k
}

func (k *structImageKind) name() string        { return k.label }
func (k *structImageKind) payload(n int) int64 { return int64(n * k.packed) }
func (k *structImageKind) prepare(n int, st uint64) {
	binary.LittleEndian.PutUint32(k.s[0:4], uint32(st)) // field a of element 0
	poison(k.r[:n*k.extent])
}
func (k *structImageKind) send(c *core.Comm, n, dst, tag int) error {
	return c.Send(k.s, int64(n), k.dt, dst, tag)
}
func (k *structImageKind) recv(c *core.Comm, n, src, tag int) error {
	_, err := c.Recv(k.r, int64(n), k.dt, src, tag)
	return err
}
func (k *structImageKind) echo(c *core.Comm, n, dst, tag int) error {
	return c.Send(k.r, int64(n), k.dt, dst, tag)
}
func (k *structImageKind) verify(n int, _ uint64) error {
	for e := 0; e < n; e++ {
		o := e * k.extent
		if !bytes.Equal(k.r[o:o+gapLo], k.s[o:o+gapLo]) ||
			!bytes.Equal(k.r[o+gapHi:o+k.extent], k.s[o+gapHi:o+k.extent]) {
			return mismatch(k, n, fmt.Sprintf("element %d", e))
		}
	}
	return nil
}

// --- double-vec: custom in-order type, 1 KiB subvectors -----------------------

// doubleVecSub is the subvector size; n subvectors carry n*doubleVecSub bytes.
const doubleVecSub = 1024

type doubleVecKind struct {
	dt *core.Datatype
	s  [][]byte
	r  [][]byte // rank 0: the echo; rank 1: what it received
}

func newDoubleVecKind(maxBytes int, seed byte, sender bool) *doubleVecKind {
	k := &doubleVecKind{dt: workloads.DoubleVecCustom()}
	if sender {
		k.s = workloads.NewDoubleVec(maxBytes, doubleVecSub, seed)
	}
	return k
}

func (k *doubleVecKind) name() string             { return "double-vec" }
func (k *doubleVecKind) payload(n int) int64      { return int64(workloads.DoubleVecBytes(k.s[:n])) }
func (k *doubleVecKind) prepare(_ int, st uint64) { stampBytes(k.s[0], st); k.r = nil }
func (k *doubleVecKind) send(c *core.Comm, n, dst, tag int) error {
	return c.Send(k.s[:n], 1, k.dt, dst, tag)
}
func (k *doubleVecKind) recv(c *core.Comm, _, src, tag int) error {
	k.r = nil
	_, err := c.Recv(&k.r, 1, k.dt, src, tag)
	return err
}
func (k *doubleVecKind) echo(c *core.Comm, _, dst, tag int) error {
	return c.Send(k.r, 1, k.dt, dst, tag)
}
func (k *doubleVecKind) verify(n int, _ uint64) error {
	if len(k.r) != n {
		return mismatch(k, n, fmt.Sprintf("subvector count %d", len(k.r)))
	}
	for i := range k.r {
		if !bytes.Equal(k.r[i], k.s[i]) {
			return mismatch(k, n, fmt.Sprintf("subvector %d", i))
		}
	}
	return nil
}

// --- DDTBench faces sent as derived datatypes ---------------------------------

// ddtKind holds one DDTBench instance per size parameter n.
type ddtKind struct {
	label string
	ins   []*ddtbench.Instance
	eps   []*ddtbench.Endpoint
	s, r  [][]byte
}

func newDDTKind(label string, k *ddtbench.Kernel, scales []int, seed byte, sender bool) (*ddtKind, error) {
	d := &ddtKind{label: label}
	for _, sc := range scales {
		in := k.Instance(sc)
		ep, err := ddtbench.NewEndpoint(in, ddtbench.MethodDDT)
		if err != nil {
			return nil, err
		}
		d.ins = append(d.ins, in)
		d.eps = append(d.eps, ep)
		var img []byte
		if sender {
			img = in.NewImage(seed)
		}
		d.s = append(d.s, img)
		d.r = append(d.r, make([]byte, in.ImageLen))
	}
	return d, nil
}

func (k *ddtKind) name() string        { return k.label }
func (k *ddtKind) payload(n int) int64 { return int64(k.ins[n].Packed) }
func (k *ddtKind) prepare(n int, st uint64) {
	first := k.ins[n].Ranges()[0]
	stampBytes(k.s[n][first.Off:first.Off+first.Len], st)
	for _, rg := range k.ins[n].Ranges() {
		poison(k.r[n][rg.Off : rg.Off+rg.Len])
	}
}
func (k *ddtKind) send(c *core.Comm, n, dst, tag int) error {
	return k.eps[n].Send(c, k.s[n], dst, tag)
}
func (k *ddtKind) recv(c *core.Comm, n, src, tag int) error {
	return k.eps[n].Recv(c, k.r[n], src, tag)
}
func (k *ddtKind) echo(c *core.Comm, n, dst, tag int) error {
	return k.eps[n].Send(c, k.r[n], dst, tag)
}
func (k *ddtKind) verify(n int, _ uint64) error {
	for _, rg := range k.ins[n].Ranges() {
		if !bytes.Equal(k.r[n][rg.Off:rg.Off+rg.Len], k.s[n][rg.Off:rg.Off+rg.Len]) {
			return mismatch(k, n, fmt.Sprintf("range at offset %d", rg.Off))
		}
	}
	return nil
}

// --- complex object: pickle-oob-cdt --------------------------------------------

// objectArrayBytes is the size of each array of the complex object (the
// paper's Figure 9 object: 128 KiB arrays plus small metadata).
const objectArrayBytes = 128 << 10

type objectKind struct {
	arrays []any
	obj    map[string]any // what rank 0 sends this iteration
	got    any            // what this rank received
}

func newObjectKind(maxArrays int, seed byte, sender bool) *objectKind {
	k := &objectKind{arrays: make([]any, maxArrays)}
	for i := 0; sender && i < maxArrays; i++ {
		k.arrays[i] = serial.NewFloat64Array(objectArrayBytes/8, seed+byte(i))
	}
	return k
}

// object is the complex object with n arrays; the stamp rides in "step".
func (k *objectKind) object(n int, stamp uint64) map[string]any {
	return map[string]any{"arrays": k.arrays[:n], "meta": "complex-object", "step": int64(stamp)}
}

func (k *objectKind) name() string        { return "complex-object" }
func (k *objectKind) payload(n int) int64 { return int64(n * objectArrayBytes) }
func (k *objectKind) prepare(n int, st uint64) {
	k.obj, k.got = k.object(n, st), nil
}
func (k *objectKind) send(c *core.Comm, _, dst, tag int) error {
	return serial.SendCDT(c, k.obj, dst, tag, serial.DefaultThreshold)
}
func (k *objectKind) recv(c *core.Comm, _, src, tag int) error {
	v, err := serial.RecvCDT(c, src, tag)
	k.got = v
	return err
}
func (k *objectKind) echo(c *core.Comm, _, dst, tag int) error {
	return serial.SendCDT(c, k.got, dst, tag, serial.DefaultThreshold)
}
func (k *objectKind) verify(n int, _ uint64) error {
	if err := equalObject(k.got, k.obj); err != nil {
		return fmt.Errorf("%s (n=%d): %w", k.name(), n, err)
	}
	return nil
}

// equalObject compares a decoded complex object with the one that was sent.
func equalObject(got any, want map[string]any) error {
	m, ok := got.(map[string]any)
	if !ok {
		return fmt.Errorf("decoded %T, want map", got)
	}
	if m["meta"] != want["meta"] || m["step"] != want["step"] {
		return fmt.Errorf("metadata %v/%v, want %v/%v", m["meta"], m["step"], want["meta"], want["step"])
	}
	ga, _ := m["arrays"].([]any)
	wa := want["arrays"].([]any)
	if len(ga) != len(wa) {
		return fmt.Errorf("%d arrays, want %d", len(ga), len(wa))
	}
	for i := range wa {
		g, ok := ga[i].(*serial.NDArray)
		w := wa[i].(*serial.NDArray)
		if !ok || g.DType != w.DType || len(g.Shape) != 1 || g.Shape[0] != w.Shape[0] || !bytes.Equal(g.Data, w.Data) {
			return fmt.Errorf("array %d differs", i)
		}
	}
	return nil
}
