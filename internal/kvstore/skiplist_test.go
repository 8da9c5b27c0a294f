package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestSkiplistPutGet(t *testing.T) {
	s := newSkiplist(1)
	s.put([]byte("b"), []byte("2"), false)
	s.put([]byte("a"), []byte("1"), false)
	s.put([]byte("c"), []byte("3"), false)
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		v, found, deleted := s.get([]byte(k))
		if !found || deleted || string(v) != want {
			t.Errorf("get(%q) = (%q, %v, %v), want (%q, true, false)", k, v, found, deleted, want)
		}
	}
	if _, found, _ := s.get([]byte("zz")); found {
		t.Error("get of missing key reported found")
	}
}

func TestSkiplistOverwrite(t *testing.T) {
	s := newSkiplist(1)
	s.put([]byte("k"), []byte("v1"), false)
	s.put([]byte("k"), []byte("v2"), false)
	v, found, _ := s.get([]byte("k"))
	if !found || string(v) != "v2" {
		t.Errorf("overwrite lost: %q", v)
	}
	if s.len() != 1 {
		t.Errorf("len = %d, want 1", s.len())
	}
}

func TestSkiplistTombstone(t *testing.T) {
	s := newSkiplist(1)
	s.put([]byte("k"), []byte("v"), false)
	s.put([]byte("k"), nil, true)
	_, found, deleted := s.get([]byte("k"))
	if !found || !deleted {
		t.Errorf("tombstone get = (found=%v deleted=%v), want (true, true)", found, deleted)
	}
}

func TestSkiplistScanOrder(t *testing.T) {
	s := newSkiplist(7)
	rnd := rand.New(rand.NewSource(42))
	want := map[string]bool{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key%04d", rnd.Intn(1000))
		s.put([]byte(k), []byte("v"), false)
		want[k] = true
	}
	var got []string
	s.scan(nil, nil, func(k, v []byte, tomb bool) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	if !sort.StringsAreSorted(got) {
		t.Error("scan output not sorted")
	}
}

func TestSkiplistScanRange(t *testing.T) {
	s := newSkiplist(1)
	for i := 0; i < 10; i++ {
		s.put([]byte(fmt.Sprintf("k%d", i)), []byte("v"), false)
	}
	var got []string
	s.scan([]byte("k3"), []byte("k7"), func(k, v []byte, tomb bool) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"k3", "k4", "k5", "k6"}
	if len(got) != len(want) {
		t.Fatalf("range scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("range scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSkiplistScanEarlyStop(t *testing.T) {
	s := newSkiplist(1)
	for i := 0; i < 10; i++ {
		s.put([]byte(fmt.Sprintf("k%d", i)), []byte("v"), false)
	}
	n := 0
	s.scan(nil, nil, func(k, v []byte, tomb bool) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestSkiplistBytesAccounting(t *testing.T) {
	s := newSkiplist(1)
	if s.sizeBytes() != 0 {
		t.Fatalf("fresh list size = %d", s.sizeBytes())
	}
	s.put([]byte("abc"), []byte("defg"), false)
	first := s.sizeBytes()
	if first <= 0 {
		t.Fatalf("size after put = %d", first)
	}
	s.put([]byte("abc"), []byte("x"), false)
	if s.sizeBytes() >= first {
		t.Errorf("size should shrink on smaller overwrite: %d -> %d", first, s.sizeBytes())
	}
}

// A cancelled delete is charged exactly as the in-place tombstone it
// replaces: the node's value leaves, and an absent key costs a node.
func TestSkiplistCancelChargesLikeTombstone(t *testing.T) {
	tomb, cancelled := newSkiplist(1), newSkiplist(1)
	for _, s := range []*skiplist{tomb, cancelled} {
		for _, k := range []string{"a", "b", "c"} {
			s.put([]byte(k), []byte("value-"+k), false)
		}
	}
	for _, k := range []string{"b", "absent"} {
		tomb.put([]byte(k), nil, true)
		cancelled.cancel([]byte(k))
		if tomb.sizeBytes() != cancelled.sizeBytes() {
			t.Fatalf("after deleting %q: tombstone charges %d bytes, cancel %d", k, tomb.sizeBytes(), cancelled.sizeBytes())
		}
	}
	if cancelled.len() != 2 {
		t.Fatalf("%d nodes left, want a and c", cancelled.len())
	}
	var keys []string
	cancelled.scan(nil, nil, func(k, _ []byte, _ bool) bool {
		keys = append(keys, string(k))
		return true
	})
	if fmt.Sprint(keys) != "[a c]" {
		t.Fatalf("scan after cancel = %v, want [a c]", keys)
	}
	if _, found, _ := cancelled.get([]byte("b")); found {
		t.Fatal("cancelled key still found")
	}
}

func TestSkiplistRandomizedAgainstMap(t *testing.T) {
	s := newSkiplist(3)
	model := map[string]string{}
	deleted := map[string]bool{}
	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("k%03d", rnd.Intn(300))
		switch r := rnd.Intn(8); {
		case r < 2:
			s.put([]byte(k), nil, true)
			delete(model, k)
			deleted[k] = true
		case r < 3: // a delete that needs no tombstone: the node goes
			s.cancel([]byte(k))
			delete(model, k)
			delete(deleted, k)
		default:
			v := fmt.Sprintf("v%d", i)
			s.put([]byte(k), []byte(v), false)
			model[k] = v
			delete(deleted, k)
		}
	}
	if s.len() != len(model)+len(deleted) {
		t.Fatalf("%d nodes, want %d live + %d tombstones", s.len(), len(model), len(deleted))
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%03d", i)
		if _, found, _ := s.get([]byte(k)); found != (model[k] != "" || deleted[k]) {
			t.Fatalf("get(%q) found=%v, model has it: %v, tombstone: %v", k, found, model[k] != "", deleted[k])
		}
	}
	for k, want := range model {
		v, found, tomb := s.get([]byte(k))
		if !found || tomb || string(v) != want {
			t.Fatalf("get(%q) = (%q,%v,%v), want %q", k, v, found, tomb, want)
		}
	}
	for k := range deleted {
		_, found, tomb := s.get([]byte(k))
		if !found || !tomb {
			t.Fatalf("deleted key %q: found=%v tomb=%v", k, found, tomb)
		}
	}
	// Scan must be sorted and consistent with the model.
	prev := []byte(nil)
	live := 0
	s.scan(nil, nil, func(k, v []byte, tomb bool) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0:0], k...)
		if !tomb {
			live++
		}
		return true
	})
	if live != len(model) {
		t.Errorf("scan live entries = %d, model = %d", live, len(model))
	}
}
