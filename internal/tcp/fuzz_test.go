package tcp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/audit"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// ackMangler sits on the ACK return path and, driven by the fuzz input,
// drops, delays (reordering), or passes each ACK. It participates in the
// conservation ledger: dropped ACKs and ACKs it is still holding are
// reported through a net probe so the auditor can still balance the books.
type ackMangler struct {
	eng   *sim.Engine
	dst   netem.Receiver
	data  []byte
	i     int
	held  int64
	drops int64
}

func (m *ackMangler) sample() audit.NetSample {
	return audit.NetSample{Name: "ack-mangler", Dropped: m.drops, Resident: m.held}
}

func (m *ackMangler) Receive(now sim.Time, p *packet.Packet) {
	var b byte = 0xFF // no fuzz data: pass everything
	if len(m.data) > 0 {
		b = m.data[m.i%len(m.data)]
		m.i++
	}
	switch {
	case b < 24: // ~9%: drop the ACK
		m.drops++
		packet.Release(p)
	case b < 96: // ~28%: delay it (reorders against later ACKs)
		m.held++
		m.eng.Schedule(time.Duration(b)*50*time.Microsecond, func() {
			m.held--
			m.dst.Receive(m.eng.Now(), p)
		})
	default:
		m.dst.Receive(now, p)
	}
}

// fuzzTransferBytes is the fuzzed transfer's length: not a multiple of the
// 8900-byte MSS, so its last segment is short.
const fuzzTransferBytes = 120_000

// rtoShortTailSeed sets no random loss, drops the first 8 ACKs and passes
// the next 200. The first flight is all 14 segments; the 64 kB bottleneck
// queue drops the last 6, the mangler the ACKs of the other 8, so the RTO
// fires with every segment outstanding, the short last one included, and
// the retransmissions complete the transfer.
var rtoShortTailSeed = append(append([]byte{0}, make([]byte, 8)...), bytes.Repeat([]byte{255}, 200)...)

// mangledTransfer runs the fuzz harness's transfer: a sender and receiver
// over a 50 Mbps bottleneck, where byte 0 of data sets a random-loss rate
// on the data direction and the rest schedules ACK drops, delays and
// reorderings. The invariant auditor rides along and panics on any
// violation during the run.
func mangledTransfer(data []byte) (*Conn, *Receiver, *audit.Auditor) {
	eng := sim.NewEngine(1)
	aud := audit.New("fuzz-conn-ack")
	eng.SetAuditor(aud)

	owd := 5 * time.Millisecond
	back := netem.NewPort(eng, "back", 10*units.GigabitPerSec, owd, nil, nil)
	bott := netem.NewPort(eng, "bottleneck", 50*units.MegabitPerSec, owd,
		aqm.NewFIFO(64_000), nil)
	if len(data) > 0 {
		bott.SetLoss(float64(data[0]%52) / 256) // up to ~20% data loss
	}

	cc := &stubCC{fixedCwnd: 0}
	conn := NewConn(eng, 1, Config{LimitBytes: fuzzTransferBytes}, cc, func(p *packet.Packet) { bott.Send(p) })
	conn.SetCwnd(32 * conn.MSS())
	rcv := NewReceiver(eng, 1, Config{}.Header, func(p *packet.Packet) { back.Send(p) })
	bott.SetDst(rcv)

	mangle := &ackMangler{eng: eng, dst: conn, data: data}
	if len(data) > 1 {
		mangle.data = data[1:]
	}
	back.SetDst(mangle)
	aud.RegisterNet(mangle.sample)

	conn.Start()
	eng.RunFor(2 * time.Minute)
	return conn, rcv, aud
}

// FuzzConnAckProcessing runs a full sender↔receiver transfer where the fuzz
// input programs the hostile parts of the path (see mangledTransfer),
// forcing SACK recovery and RTOs. The runtime invariant auditor rides
// along, so any sequence-space corruption (sndUna regression, inflight
// drift, retransmit of a SACKed segment, a segment other than the last
// that is not MSS long) or packet leak panics the run. This is the fuzz
// surface for the ACK/SACK state machine.
func FuzzConnAckProcessing(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{40, 0, 200, 10, 90, 95, 23, 24})
	f.Add([]byte{255, 255, 0, 0, 255, 0})
	ramp := make([]byte, 128)
	for i := range ramp {
		ramp[i] = byte(i * 2)
	}
	f.Add(ramp)
	f.Add(rtoShortTailSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, rcv, aud := mangledTransfer(data)

		// Whatever the mangler did, the state machine must stay coherent:
		// the auditor's deep sequence-space walk and the global conservation
		// ledger both have to close. (Completion is not guaranteed — a
		// hostile enough schedule can starve the transfer — but corruption
		// or leakage is a failure regardless.)
		if err := conn.auditSeqSpace(); err != nil {
			t.Fatalf("sequence space corrupt after mangled run: %v", err)
		}
		aud.Finish()

		// The receiver must never have handed up out-of-order data.
		if g := rcv.Goodput(); g > fuzzTransferBytes {
			t.Fatalf("receiver goodput %d exceeds the %d-byte transfer", g, fuzzTransferBytes)
		}
		// With no fuzz input the path is clean, so the transfer must finish —
		// otherwise the harness is broken and every fuzz pass is vacuous.
		if len(data) == 0 && rcv.Goodput() != fuzzTransferBytes {
			t.Fatalf("clean path moved %d of %d bytes", rcv.Goodput(), fuzzTransferBytes)
		}
	})
}

// TestRTOShortTailSeed: the fuzz seed does what it is there for. It forces
// an RTO while the short last segment is outstanding, and the transfer
// still completes.
func TestRTOShortTailSeed(t *testing.T) {
	if fuzzTransferBytes%8900 == 0 {
		t.Fatal("the fuzzed transfer must end in a short segment")
	}
	conn, rcv, aud := mangledTransfer(rtoShortTailSeed)
	aud.Finish()
	if st := conn.Stats(); st.RTOs == 0 || st.Retransmits == 0 {
		t.Fatalf("%d RTOs, %d retransmits; the seed must force an RTO", st.RTOs, st.Retransmits)
	}
	if g := rcv.Goodput(); g != fuzzTransferBytes {
		t.Fatalf("moved %d of %d bytes", g, fuzzTransferBytes)
	}
}
