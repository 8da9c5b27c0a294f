package rpc

import (
	"bytes"
	"testing"
)

func TestBatchCodecRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("one")},
		{[]byte("a"), nil, []byte("ccc")}, // empty sub-bodies survive
		{bytes.Repeat([]byte{0xab}, 1<<12), []byte{0}},
	}
	for i, subs := range cases {
		got, err := DecodeBatch(EncodeBatch(subs))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(subs) {
			t.Fatalf("case %d: %d subs, want %d", i, len(got), len(subs))
		}
		for j := range subs {
			if !bytes.Equal(got[j], subs[j]) {
				t.Errorf("case %d sub %d: %q != %q", i, j, got[j], subs[j])
			}
		}
	}
}

func TestBatchCodecRejectsMalformed(t *testing.T) {
	good := EncodeBatch([][]byte{[]byte("x"), []byte("yy")})
	// Every strict prefix must fail to decode — a torn frame can never
	// yield a shorter-but-valid batch.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeBatch(good[:cut]); err == nil {
			t.Errorf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, err := DecodeBatch(append(good, 0x01)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A corrupt count must be bounded, not ballooned into an allocation.
	huge := &Wire{}
	huge.U32(1 << 30)
	if _, err := DecodeBatch(huge.Bytes()); err == nil {
		t.Error("absurd op count accepted")
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to the batch envelope decoder:
// it must never panic, and whatever it accepts must be exactly what
// EncodeBatch produces for the decoded sub-bodies.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch([][]byte{[]byte("create"), {}, []byte("remove")}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		subs, err := DecodeBatch(body)
		if err != nil {
			return
		}
		if again := EncodeBatch(subs); !bytes.Equal(again, body) {
			t.Fatalf("accepted %x but it re-encodes as %x", body, again)
		}
	})
}
