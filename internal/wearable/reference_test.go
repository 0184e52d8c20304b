package wearable

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mindful/internal/comm"
)

// refReceive is Receive as it was before the scratch decode: the frame
// decoded into a fresh slice and rejections wrapped with their cause —
// the oracle Receive's receiver-owned scratch path is pinned against.
func (r *Receiver) refReceive(buf []byte) (comm.Frame, error) {
	f, err := comm.Decode(buf)
	if err != nil {
		r.corrupt++
		return comm.Frame{}, fmt.Errorf("wearable: frame rejected: %w", err)
	}
	if r.started && f.Seq != r.nextSeq {
		delta := int32(f.Seq - r.nextSeq)
		if delta < 0 {
			r.stale++
			return f, ErrStaleFrame
		}
		gap := int64(delta)
		r.lost += gap
		r.conceal(gap, f)
	}
	r.started = true
	r.nextSeq = f.Seq + 1
	r.accepted++
	r.record(f.Samples)
	r.remember(f.Samples)
	return f, nil
}

// TestReceiveFastIdentical feeds two receivers the same delivery stream
// — clean frames, corrupt frames, gaps and a stale duplicate — one
// through the reference and one through Receive, and requires identical
// frames, errors (by kind), stats, state and history.
func TestReceiveFastIdentical(t *testing.T) {
	mk := func() (*Receiver, *comm.Packetizer) {
		rx, err := NewReceiver(32)
		if err != nil {
			t.Fatal(err)
		}
		rx.Concealment = ConcealInterp
		pkt, err := comm.NewPacketizer(10)
		if err != nil {
			t.Fatal(err)
		}
		return rx, pkt
	}
	ref, refPkt := mk()
	fast, fastPkt := mk()

	samples := func(pkt *comm.Packetizer, tick int) []byte {
		xs := make([]uint16, 8)
		for c := range xs {
			xs[c] = uint16((tick*31 + c*7) % 1024)
		}
		buf, err := pkt.AppendEncode(nil, xs)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	var stale []byte // a buffered frame redelivered later
	for tick := 0; tick < 120; tick++ {
		refBuf := samples(refPkt, tick)
		fastBuf := samples(fastPkt, tick)
		switch {
		case tick%17 == 5: // dropped frame: receiver never sees it
			continue
		case tick%13 == 4: // corrupt delivery
			refBuf[len(refBuf)/2] ^= 0x40
			fastBuf[len(fastBuf)/2] ^= 0x40
		case tick == 60: // remember for a stale redelivery
			stale = append([]byte(nil), refBuf...)
		}
		refFr, refErr := ref.refReceive(refBuf)
		fastFr, fastErr := fast.Receive(fastBuf)
		if (refErr == nil) != (fastErr == nil) {
			t.Fatalf("tick %d: err mismatch %v vs %v", tick, refErr, fastErr)
		}
		if refErr == nil && !reflect.DeepEqual(refFr, comm.Frame{
			Seq: fastFr.Seq, SampleBits: fastFr.SampleBits,
			Samples: fastFr.Samples, Flags: fastFr.Flags,
		}) {
			t.Fatalf("tick %d: frame mismatch %+v vs %+v", tick, refFr, fastFr)
		}
		if tick == 80 && stale != nil { // redeliver the old frame
			_, refErr := ref.refReceive(stale)
			_, fastErr := fast.Receive(stale)
			if !errors.Is(refErr, ErrStaleFrame) || !errors.Is(fastErr, ErrStaleFrame) {
				t.Fatalf("stale redelivery: %v vs %v", refErr, fastErr)
			}
		}
	}
	if !reflect.DeepEqual(ref.Stats(), fast.Stats()) {
		t.Errorf("stats diverge:\n ref %+v\nfast %+v", ref.Stats(), fast.Stats())
	}
	if !reflect.DeepEqual(ref.Snapshot(), fast.Snapshot()) {
		t.Errorf("snapshots diverge")
	}
	for c := 0; c < 8; c++ {
		if !reflect.DeepEqual(ref.History(c), fast.History(c)) {
			t.Errorf("history channel %d diverges", c)
		}
	}
}

// TestReceiveRejectionIsStatic pins the allocation contract: a corrupt
// frame surfaces ErrFrameRejected itself, not a wrapped allocation, and
// neither the rejection path nor a steady-state accept allocates.
func TestReceiveRejectionIsStatic(t *testing.T) {
	rx, err := NewReceiver(0)
	if err != nil {
		t.Fatal(err)
	}
	rx.Concealment = ConcealHold
	if _, rerr := rx.Receive([]byte{1, 2, 3}); rerr != ErrFrameRejected {
		t.Fatalf("err = %v, want ErrFrameRejected identity", rerr)
	}
	if rx.Stats().Corrupted != 1 {
		t.Errorf("corrupted = %d, want 1", rx.Stats().Corrupted)
	}
	garbage := []byte{1, 2, 3}
	if allocs := testing.AllocsPerRun(200, func() { rx.Receive(garbage) }); allocs != 0 {
		t.Errorf("rejection path allocates %.1f/op, want 0", allocs)
	}
	pkt, err := comm.NewPacketizer(10)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]uint16, 32)
	var frame []byte
	accept := func() {
		frame, _ = pkt.AppendEncode(frame[:0], samples)
		if _, err := rx.Receive(frame); err != nil {
			t.Fatal(err)
		}
	}
	accept()
	if allocs := testing.AllocsPerRun(200, accept); allocs != 0 {
		t.Errorf("accept path allocates %.1f/op, want 0", allocs)
	}
}
