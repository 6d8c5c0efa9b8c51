package obs

import (
	"io"
	"sync"
	"time"
)

// EventKind identifies one step of a message lifecycle.
type EventKind uint8

// Message lifecycle steps, in the order a message typically visits them:
// a receive is posted (EvPost) or a send starts (EvSend, Arg = chosen
// protocol), the message matches a receive (EvMatch, Arg = 1 for a posted
// hit / 0 for an unexpected hit), a rendezvous pull fans out (EvStripes,
// Arg = segment count), the janitor resends (EvRexmit, Arg = attempt),
// and the request completes (EvComplete, Arg = 0 ok / 1 failed) or times
// out (EvTimeout).
const (
	EvPost EventKind = 1 + iota
	EvSend
	EvMatch
	EvStripes
	EvRexmit
	EvComplete
	EvTimeout

	// Connection lifecycle of the byte-stream providers (TCP and the SHM
	// control plane), recorded into Lifecycle. Peer is the remote rank.
	EvConnInstall   // connection published; Arg = 1 when it replaced a live one
	EvConnDrop      // current connection torn down; Arg = drop site
	EvConnDropStale // already-replaced connection torn down; Arg = drop site
	EvHelloReject   // inbound hello named an invalid rank; Arg = claimed rank
	EvDialOK        // outbound dial established the connection
	EvDialFail      // dial campaign gave up (deadline)
	EvHelloYield    // simultaneous dial: the lower rank was told to wait
	EvRevive        // all connection state toward Peer forgotten
	EvEpochDeath    // handshake announced a newer incarnation; Arg = epoch

	// SHM eager-ring handshake toward Peer; Arg = handshake generation.
	EvRingOpen   // ring created and announced; Size = segment bytes
	EvRingAck    // receiver acknowledged the ring
	EvRingSwitch // switch marker sent; eager frames now cross the ring
	EvRingDown   // ring torn down (socket drop or revival)

	// Recovery steps (ULFM revoke, elastic shrink/grow/join).
	EvRevoke        // communicator revoked; Arg = receives aborted
	EvNoticeSent    // revoke notice posted toward Peer
	EvNoticeRefused // revoke notice toward Peer refused at post
	EvNoticeRecv    // notice received; Arg = notice byte
	EvShrink        // shrunk; Size = new size, Arg = ranks folded out
	EvGrow          // grow attempt; Size = new size, Arg = 1 when it failed
	EvJoinOpen      // respawned rank opened its join window
	EvJoinClosed    // join window closed; Arg = 1 when no comm was formed
)

// kindNames is the one name table: String, MarshalJSON and UnmarshalJSON
// all read it, so a new kind needs only a constant and an entry here.
var kindNames = [...]string{
	EvPost:          "post",
	EvSend:          "send",
	EvMatch:         "match",
	EvStripes:       "stripes",
	EvRexmit:        "rexmit",
	EvComplete:      "complete",
	EvTimeout:       "timeout",
	EvConnInstall:   "conn-install",
	EvConnDrop:      "conn-drop",
	EvConnDropStale: "conn-drop-stale",
	EvHelloReject:   "hello-reject",
	EvDialOK:        "dial-ok",
	EvDialFail:      "dial-fail",
	EvHelloYield:    "hello-yield",
	EvRevive:        "revive",
	EvEpochDeath:    "epoch-death",
	EvRingOpen:      "ring-open",
	EvRingAck:       "ring-ack",
	EvRingSwitch:    "ring-switch",
	EvRingDown:      "ring-down",
	EvRevoke:        "revoke",
	EvNoticeSent:    "notice-sent",
	EvNoticeRefused: "notice-refused",
	EvNoticeRecv:    "notice-recv",
	EvShrink:        "shrink",
	EvGrow:          "grow",
	EvJoinOpen:      "join-open",
	EvJoinClosed:    "join-closed",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON emits the kind's name so trace dumps read without a legend.
// Only the dump path pays for this — recording stores the raw byte.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the name form produced by MarshalJSON; an
// unknown name decodes as 0.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	*k = 0
	for c, name := range kindNames {
		if name != "" && string(b) == `"`+name+`"` {
			*k = EventKind(c)
			break
		}
	}
	return nil
}

// Event is one fixed-size trace record. Fields are value types only, so
// recording an event is a struct copy into the preallocated ring — no
// heap allocation.
type Event struct {
	Nanos int64     `json:"ns"`   // wall-clock nanoseconds (time.Now().UnixNano())
	Kind  EventKind `json:"kind"` // lifecycle step
	Rank  int32     `json:"rank"` // observing rank
	Peer  int32     `json:"peer"` // remote rank (-1 when unknown)
	MsgID uint64    `json:"msg"`  // transport message id (0 when not yet assigned)
	Tag   uint64    `json:"tag"`  // transport matching tag
	Size  int64     `json:"size"` // message payload bytes
	Arg   int64     `json:"arg"`  // kind-specific detail (see EventKind docs)
}

// Ring is a bounded in-memory trace buffer: the last cap(events) records
// survive, older ones are overwritten. A mutex (not atomics) guards the
// slots so snapshots never observe torn events under the race detector;
// the critical section is one struct copy and Record never allocates.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total records ever written; next%len(buf) is the write slot
}

// NewRing returns a ring holding the most recent capacity events
// (rounded up to a power of two, minimum 16).
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Record appends one event, overwriting the oldest when full. Safe to
// call on a nil ring (tracing disabled).
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next&uint64(len(r.buf)-1)] = ev
	r.next++
	r.mu.Unlock()
}

// Len returns how many events are currently held (at most the capacity).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Dropped returns how many events were overwritten before they could be
// read.
func (r *Ring) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(len(r.buf)) {
		return 0
	}
	return int64(r.next - uint64(len(r.buf)))
}

// Events returns the held events oldest-first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	start := uint64(0)
	count := r.next
	if r.next > n {
		start = r.next - n
		count = n
	}
	out := make([]Event, 0, count)
	for i := start; i < r.next; i++ {
		out = append(out, r.buf[i&(n-1)])
	}
	return out
}

// WriteJSON dumps the held events oldest-first as indented JSON.
func (r *Ring) WriteJSON(w io.Writer) error {
	return writeSortedJSON(w, r.Events())
}

// Lifecycle is the process-wide, always-on ring of rare lifecycle events:
// connection install/drop/redial, SHM ring handshakes and recovery steps.
// These happen a handful of times per link or per failure, so recording
// them unconditionally costs nothing that matters; the debug dump and
// failing tests read the ring back beside the metrics registry.
var Lifecycle = NewRing(256)

// Note records one lifecycle event, stamped now, into Lifecycle.
func Note(kind EventKind, rank, peer int, size, arg int64) {
	Lifecycle.Record(Event{Nanos: time.Now().UnixNano(), Kind: kind, Rank: int32(rank), Peer: int32(peer), Size: size, Arg: arg})
}
