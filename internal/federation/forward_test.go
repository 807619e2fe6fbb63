package federation

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/wire"
)

// routerAllocBudget bounds the heap allocations a routed message costs the
// router, end to end: its read off the agent's socket, Handle, the shard
// client's batch write and the shard's ack vector. One is the message's
// frame; the rest is per batch, a slab of Messages, the batch slices and
// the flush timer, shared by the batch's messages. Decoding and
// re-encoding every message cost 21.9 (1 424 B) before the router forwarded
// frames.
const routerAllocBudget = 3

// ackingShard is a shard stand-in that allocates nothing per batch: it reads
// through one fixed buffer, skips every message, and answers each batch
// with an ack vector precomputed for its count.
func ackingShard(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	vectors := make([][]byte, 65)
	for n := 1; n <= 64; n++ {
		acks := make([]*wire.Ack, n)
		for i := range acks {
			acks[i] = &wire.Ack{OK: true}
		}
		var out bytes.Buffer
		if err := wire.WriteAckVector(&out, acks); err != nil {
			t.Fatal(err)
		}
		vectors[n] = out.Bytes()
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReaderSize(conn, wire.BatchBuffer)
				hdr := make([]byte, 8)
				for {
					if _, err := io.ReadFull(br, hdr); err != nil {
						return
					}
					n := int(binary.BigEndian.Uint32(hdr[4:]))
					if n < 1 || n > 64 {
						return
					}
					for part := 0; part < 4*n; part++ {
						if _, err := io.ReadFull(br, hdr[:4]); err != nil {
							return
						}
						if _, err := br.Discard(int(binary.BigEndian.Uint32(hdr[:4]))); err != nil {
							return
						}
					}
					if _, err := conn.Write(vectors[n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRouterAllocationBudget routes through wire.Serve(router.Handle) on
// loopback, from a sender that writes pre-encoded 8-message frames and
// reads acks into a fixed buffer, to two shards that allocate nothing: the
// heap allocations counted are the router's alone.
func TestRouterAllocationBudget(t *testing.T) {
	r, err := NewRouter([]Shard{{Wire: ackingShard(t)}, {Wire: ackingShard(t)}}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv, err := wire.Serve("127.0.0.1:0", r.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const perFrame = 8
	report := bytes.Repeat([]byte("x"), 851)
	frames := make([][]byte, 16)
	for f := range frames {
		msgs := make([]*wire.Message, perFrame)
		for i := range msgs {
			msgs[i] = &wire.Message{Branch: fmt.Sprintf("probe=p%d,site=s%d,vo=tg", i, f), Hostname: "login1", Report: report}
		}
		var out bytes.Buffer
		if err := wire.WriteBatch(&out, msgs); err != nil {
			t.Fatal(err)
		}
		frames[f] = out.Bytes()
	}
	br := bufio.NewReader(conn)
	ackBuf := make([]byte, 5+perFrame*5)
	send := func(frames [][]byte, n int) {
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		for i := 0; i < n; i++ {
			if _, err := conn.Write(frames[i%len(frames)]); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(br, ackBuf); err != nil {
				t.Fatal(err)
			}
			for a := 5; a < len(ackBuf); a += 5 {
				if ackBuf[a] != 0 {
					t.Fatalf("message refused: % x", ackBuf)
				}
			}
		}
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	send(frames, 500) // warm: dial the shards, grow the buffers
	const sends = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(frames, sends)
	runtime.ReadMemStats(&after)
	msgs := float64(sends * perFrame)
	perMsg := float64(after.Mallocs-before.Mallocs) / msgs
	bytesPerMsg := float64(after.TotalAlloc-before.TotalAlloc) / msgs
	t.Logf("router: %.2f allocations, %.0f B per routed message (%d messages)", perMsg, bytesPerMsg, sends*perFrame)
	if perMsg > routerAllocBudget {
		t.Fatalf("router: %.2f allocations per routed message, budget %d", perMsg, routerAllocBudget)
	}
	if st := r.Stats(); st.Routed != (500+sends)*perFrame {
		t.Fatalf("routed %d, want %d", st.Routed, (500+sends)*perFrame)
	}
}

// routeSeed frames msgs as one batch frame whose header claims count.
func routeSeed(tb testing.TB, count uint32, msgs ...*wire.Message) []byte {
	out := binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF)
	out = binary.BigEndian.AppendUint32(out, count)
	for _, m := range msgs {
		var b bytes.Buffer
		if err := wire.WriteMessage(&b, m); err != nil {
			tb.Fatal(err)
		}
		out = append(out, b.Bytes()...)
	}
	return out
}

// FuzzRouteFrame holds the router's in-place path to the oracle it
// replaced: wire.ReadBatch, branch.Parse, Ring.Owner, and wire.WriteMessage
// encoding the decoded message afresh. For any batch-frame bytes, the
// frame read as the server reads it and passed to Handle must be accepted
// or refused as the oracle decides, answered with the same ack text, queued
// for the same owner, and forwarded as the oracle's re-encoding.
func FuzzRouteFrame(f *testing.F) {
	canonical := &wire.Message{Branch: "probe=p1,site=s,vo=x", Hostname: "login1", Report: []byte("<r><v>1</v></r>")}
	signed := &wire.Message{Branch: " probe=p2 , site = t ,vo=x", Hostname: "login2", Report: []byte("<r/>")}
	wire.SignMessage(signed, []byte("secret"))
	torn := routeSeed(f, 1, canonical)
	f.Add(routeSeed(f, 1, canonical))
	f.Add(routeSeed(f, 2, &wire.Message{Hostname: "login1", Report: []byte("<r/>")}, canonical))
	f.Add(routeSeed(f, 2, &wire.Message{Branch: "probe=,site=s", Hostname: "h"}, &wire.Message{Branch: "a=b=c", Hostname: "h"}))
	f.Add(routeSeed(f, 1, &wire.Message{Branch: "probe=p1,site=s,vo=x", Hostname: "login1"}))
	f.Add(routeSeed(f, 2, signed, canonical))
	f.Add(routeSeed(f, 0))
	f.Add(routeSeed(f, wire.MaxBatch+1, canonical))
	f.Add(torn[:len(torn)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		want, oerr := wire.ReadBatch(bytes.NewReader(data))
		got, err := wire.ReadBatch(bufio.NewReaderSize(bytes.NewReader(data), wire.BatchBuffer))
		if (err == nil) != (oerr == nil) {
			t.Fatalf("server reader: %v, oracle: %v", err, oerr)
		}
		if err != nil {
			return
		}
		r, err := NewRouter([]Shard{{Wire: "127.0.0.1:1"}, {Wire: "127.0.0.1:2"}, {Wire: "127.0.0.1:3"}},
			RouterOptions{Batch: wire.BatchOptions{MaxBatch: wire.MaxBatch, FlushInterval: -1, MaxPending: -1}})
		if err != nil {
			t.Fatal(err)
		}
		owner := make(map[*wire.Message]string)
		for i, m := range got {
			ack := r.Handle(m, "fuzz")
			id, err := branch.Parse(want[i].Branch)
			switch {
			case err != nil:
				if text := "bad branch: " + err.Error(); ack.OK || ack.Message != text {
					t.Fatalf("message %d: ack %+v, oracle refuses with %q", i, *ack, text)
				}
			case !ack.OK || ack.Message != "":
				t.Fatalf("message %d: ack %+v, oracle accepts", i, *ack)
			default:
				owner[m] = r.Ring().Owner(id)
			}
		}
		index := make(map[*wire.Message]int, len(got))
		for i, m := range got {
			index[m] = i
		}
		queued := 0
		for name, c := range r.clients {
			for _, m := range c.CloseHarvest() {
				i := index[m]
				queued++
				if owner[m] != name {
					t.Fatalf("message %d queued for %s, oracle owner %q", i, name, owner[m])
				}
				o := want[i]
				var fwd, enc bytes.Buffer
				if err := wire.WriteMessage(&fwd, m); err != nil {
					t.Fatal(err)
				}
				if err := wire.WriteMessage(&enc, &wire.Message{Branch: o.Branch, Hostname: o.Hostname, Report: o.Report, Signature: o.Signature}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fwd.Bytes(), enc.Bytes()) {
					t.Fatalf("message %d forwarded as %q, oracle re-encodes %q", i, fwd.Bytes(), enc.Bytes())
				}
			}
		}
		if queued != len(owner) {
			t.Fatalf("%d messages queued, oracle routes %d", queued, len(owner))
		}
	})
}
