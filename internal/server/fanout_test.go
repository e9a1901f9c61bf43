package server

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFanoutLedgerConservation drives seeded random deliveries of all
// three fan-out kinds, from delta and non-delta owners sharing one
// 4-deep socketless write queue, interleaved with reply frames and
// drains at random points, against a reference model of the queue's
// shed-oldest-fan-out policy. It pins the frame ledger: per kind,
// sent − dropped equals the frames that left the queue; write_drops
// equals the model's queue drops; every delta owner that loses a frame
// is marked for re-keying, and a keyframe enqueued without losing one
// of its owner's frames clears the mark.
func TestFanoutLedgerConservation(t *testing.T) {
	const depth, steps = 4, 3000
	for seed := uint64(1); seed <= 8; seed++ {
		srv := New(Config{TickInterval: time.Hour})
		owners := []*subscriber{testSub(srv, depth, &wire.Request{})}
		c := owners[0].c
		c.version.Store(wire.ProtocolVersion)
		for i := 1; i < 6; i++ {
			owners = append(owners, newSubscriber(c, &wire.Request{Delta: i%2 == 1}))
		}
		snap := wire.Response{Op: wire.OpSnapshot, OK: true, Session: 1,
			Events: []string{"a"}, Values: []int64{1}}
		reply, err := wire.AppendFrame(nil, wire.CodecJSON, &wire.Response{Op: wire.OpStats, OK: true})
		if err != nil {
			t.Fatal(err)
		}

		type entry struct {
			kind  frameKind
			owner *subscriber
		}
		var model []entry // the queue as the policy says it must be
		var wantDropped, popped [numFrameKinds]uint64
		var wantWriteDrops uint64
		rng := rand.New(rand.NewPCG(seed, 0x1ed6e4))
		pop := func() {
			f, ok := c.q.tryPop()
			if !ok {
				if len(model) != 0 {
					t.Fatalf("seed %d: queue empty, model holds %d frames", seed, len(model))
				}
				return
			}
			if f.kind != model[0].kind || f.owner != model[0].owner {
				t.Fatalf("seed %d: popped %s of %p, model says %s of %p",
					seed, f.kind, f.owner, model[0].kind, model[0].owner)
			}
			model = model[1:]
			popped[f.kind]++
			f.release()
		}
		for step := 0; step < steps; step++ {
			switch r := rng.IntN(10); {
			case r < 2: // drain a few frames
				for n := rng.IntN(depth + 1); n > 0; n-- {
					pop()
				}
				continue
			case r < 3: // a request reply, never into a full queue (that evicts)
				if len(model) < depth {
					c.q.push(frame{payload: reply, kind: kindReply})
					model = append(model, entry{kind: kindReply})
				}
				continue
			}
			sub := owners[rng.IntN(len(owners))]
			kind := kindSnapshot
			if sub.delta {
				kind += frameKind(rng.IntN(3)) // keyframe, delta or derived
			} else if rng.IntN(2) == 0 {
				kind = kindDerived
			}
			// The model: a full queue sheds its oldest fan-out frame, or
			// the new one when only replies are queued.
			var lost *entry
			refused := false
			if len(model) == depth {
				i := 0
				for i < len(model) && model[i].kind == kindReply {
					i++
				}
				if i < len(model) {
					e := model[i]
					lost = &e
					model = append(model[:i], model[i+1:]...)
				} else {
					lost, refused = &entry{kind: kind, owner: sub}, true
				}
				wantDropped[lost.kind]++
				wantWriteDrops++
			}
			if !refused {
				model = append(model, entry{kind: kind, owner: sub})
			}
			enc := encCache{resp: &snap}
			srv.deliver(&enc, kind, sub)
			enc.done()

			if lost != nil && lost.owner.delta && !lost.owner.needKey.Load() {
				t.Fatalf("seed %d step %d: delta owner lost a %s frame but needKey is clear",
					seed, step, lost.kind)
			}
			keyframe := kind == kindSnapshot && sub.delta
			if keyframe && (lost == nil || lost.owner != sub) && sub.needKey.Load() {
				t.Fatalf("seed %d step %d: clean keyframe enqueue left needKey set", seed, step)
			}
		}
		for len(model) > 0 {
			pop()
		}

		st := srv.Stats()
		for _, k := range []struct {
			kind          frameKind
			sent, dropped uint64
		}{
			{kindSnapshot, st["snapshots_sent"], st["snapshots_dropped"]},
			{kindDelta, st["deltas_sent"], st["deltas_dropped"]},
			{kindDerived, st["derived_sent"], st["derived_dropped"]},
		} {
			if k.sent-k.dropped != popped[k.kind] {
				t.Errorf("seed %d %s: sent %d − dropped %d = %d, but %d frames left the queue",
					seed, k.kind, k.sent, k.dropped, k.sent-k.dropped, popped[k.kind])
			}
			if k.dropped != wantDropped[k.kind] {
				t.Errorf("seed %d %s: dropped %d, model shed %d", seed, k.kind, k.dropped, wantDropped[k.kind])
			}
		}
		if st["write_drops"] != wantWriteDrops {
			t.Errorf("seed %d: write_drops %d, model shed %d", seed, st["write_drops"], wantWriteDrops)
		}
		if wantWriteDrops == 0 || wantDropped[kindDelta] == 0 {
			t.Errorf("seed %d: model shed %v; the run never exercised queue drops", seed, wantDropped)
		}
	}
}

// TestSubscribeAddsNoGoroutines: subscriptions cost no goroutines — a
// connection's fan-out frames go straight into its write queue, drained
// by the one writer it already has. A single-session SUBSCRIBE plus a
// wildcard SUBSCRIBE over 64 sessions must leave the goroutine count
// where it was.
func TestSubscribeAddsNoGoroutines(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour})
	pub := dialT(t, addr)
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = pubSession(t, pub, "")
	}
	cl := dialT(t, addr)
	helloT(t, cl)
	// settled returns the goroutine count once it holds still.
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(20 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n && i >= 5 {
				break
			}
			n = m
		}
		return n
	}
	before := settled()
	if _, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Session: ids[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Sessions: ids}); err != nil {
		t.Fatal(err)
	}
	if added := settled() - before; added != 0 {
		t.Errorf("two SUBSCRIBEs (one over %d sessions) added %d goroutines, want 0", len(ids), added)
	}
}
