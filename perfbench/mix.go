package main

import (
	"fmt"
	"math"
	"math/rand"

	"mpicd/internal/core"
	"mpicd/internal/ddtbench"
	"mpicd/internal/workloads"
)

// A mix is the set of message kinds one ping-pong workload sends, and the
// seeded schedule that picks the next (kind, size) pair.
//
// Sizes are log-uniform between lo and hi, drawn stratified: every cycle of
// the schedule holds each (cell, stratum) pair exactly once, in a seeded
// order, with a seeded size inside the stratum. So each seed sends
// different sizes and contents, but every seed sends the same size and
// kind distribution, and a run's medians do not depend on which sizes the
// seed happened to draw.
type mix struct {
	kinds   []kind
	cells   []int // kind index per cell; a kind may fill several cells
	strata  int
	lo, hi  float64
	sizeFor func(k, stratum int, bytes float64) int
}

// msg is one scheduled message: kind index and size parameter.
type msg struct{ k, n int }

type schedule struct {
	m     *mix
	rng   *rand.Rand
	cycle []msg
	pos   int
}

func (m *mix) schedule(seed int64) *schedule {
	return &schedule{m: m, rng: rand.New(rand.NewSource(seed))}
}

// cycleLen is the number of messages after which the schedule has sent
// every (cell, stratum) pair once.
func (m *mix) cycleLen() int { return len(m.cells) * m.strata }

func (s *schedule) next() msg {
	if s.pos == len(s.cycle) {
		s.refill()
	}
	out := s.cycle[s.pos]
	s.pos++
	return out
}

func (s *schedule) refill() {
	m := s.m
	s.cycle = s.cycle[:0]
	for _, k := range m.cells {
		for st := 0; st < m.strata; st++ {
			u := (float64(st) + s.rng.Float64()) / float64(m.strata)
			bytes := m.lo * math.Pow(m.hi/m.lo, u)
			s.cycle = append(s.cycle, msg{k: k, n: m.sizeFor(k, st, bytes)})
		}
	}
	s.rng.Shuffle(len(s.cycle), func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
	s.pos = 0
}

// Small mix: 8 B - 4 KiB, two thirds contiguous bytes, one third
// []StructSimpleGo slices through mpi.SendSlice. Every message stays on
// the eager path.
const (
	smallLo, smallHi = 8, 4 << 10
	smallStrata      = 8
)

func smallMix(seed int64) *mix {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	maxStructs := smallHi / workloads.StructSimplePacked
	return &mix{
		kinds:  []kind{newBytesKind(smallHi, rng), newStructSliceKind(maxStructs, rng)},
		cells:  []int{0, 0, 1},
		strata: smallStrata,
		lo:     smallLo, hi: smallHi,
		sizeFor: func(k, _ int, bytes float64) int {
			if k == 1 {
				return max(1, int(bytes)/workloads.StructSimplePacked)
			}
			return max(1, int(bytes))
		},
	}
}

// Large mix: 256 KiB - 4 MiB in the paper's datatypes. Every message takes
// the rendezvous pull path.
const (
	largeLo, largeHi = 256 << 10, 4 << 20
	largeStrata      = 4
	// nasLUyScale gives a 260 KiB NAS_LU_y face; its memory image is 64
	// times the face, so the kind stays at the bottom of the size range.
	nasLUyScale = 13
)

// milcScales are the MILC face sizes, one per stratum: 384 KiB, 768 KiB,
// 1.5 MiB and 3 MiB.
var milcScales = []int{2, 4, 8, 16}

// largeMix builds the large kinds. Only the sender (rank 0) holds send
// images; rank 1 receives and echoes.
func largeMix(seed int64, sender bool) (*mix, error) {
	s := byte(seed) | 1
	milc, err := newDDTKind("milc-ddt", ddtbench.MILC, milcScales, s, sender)
	if err != nil {
		return nil, err
	}
	nas, err := newDDTKind("nas-lu-y-ddt", ddtbench.NASLUy, []int{nasLUyScale}, s+1, sender)
	if err != nil {
		return nil, err
	}
	maxSimple := largeHi / workloads.StructSimplePacked
	maxVec := largeHi / workloads.StructVecPacked
	kinds := []kind{
		newStructImageKind("struct-simple-ddt", core.FromDDT(workloads.StructSimpleDerived()),
			workloads.StructSimpleExtent, workloads.StructSimplePacked, maxSimple, workloads.FillStructSimple, int32(seed), sender),
		newStructImageKind("struct-vec-custom", workloads.StructVecCustom(),
			workloads.StructVecExtent, workloads.StructVecPacked, maxVec, workloads.FillStructVec, int32(seed)+1, sender),
		newDoubleVecKind(largeHi, s+2, sender),
		milc,
		nas,
		newObjectKind(largeHi/objectArrayBytes, s+3, sender),
	}
	if len(milcScales) != largeStrata {
		return nil, fmt.Errorf("perfbench: %d MILC scales for %d strata", len(milcScales), largeStrata)
	}
	return &mix{
		kinds:  kinds,
		cells:  []int{0, 1, 2, 3, 4, 5},
		strata: largeStrata,
		lo:     largeLo, hi: largeHi,
		sizeFor: func(k, stratum int, bytes float64) int {
			switch k {
			case 0:
				return int(bytes) / workloads.StructSimplePacked
			case 1:
				return max(1, int(bytes)/workloads.StructVecPacked)
			case 2:
				return max(1, int(bytes)/doubleVecSub)
			case 3:
				return stratum
			case 4:
				return 0
			default:
				return min(largeHi/objectArrayBytes, max(2, int(math.Round(bytes/objectArrayBytes))))
			}
		},
	}, nil
}
