package kvstore

import (
	"fmt"
	"testing"
)

func drain(t *testing.T, m *mergeIterator) []string {
	t.Helper()
	var out []string
	for {
		k, _, tomb, ok, err := m.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		suffix := ""
		if tomb {
			suffix = "!"
		}
		out = append(out, string(k)+suffix)
	}
}

func TestMemCursorRange(t *testing.T) {
	s := newSkiplist(1)
	for i := 0; i < 10; i++ {
		s.put([]byte(fmt.Sprintf("k%d", i)), []byte("v"), false)
	}
	c := newMemCursor(s, []byte("k3"), []byte("k7"))
	var got []string
	for {
		k, _, _, ok, err := c.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, string(k))
	}
	if len(got) != 4 || got[0] != "k3" || got[3] != "k6" {
		t.Errorf("memCursor range = %v", got)
	}
}

func TestSSTCursorRangeAndSeek(t *testing.T) {
	tbl := buildTestTable(t, seqEntries(100))
	c := newSSTCursor(tbl, []byte("key00050"), []byte("key00055"), &readStats{})
	defer c.close()
	var got []string
	for {
		k, v, _, ok, err := c.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if string(v) == "" {
			t.Errorf("missing value for %s", k)
		}
		got = append(got, string(k))
	}
	if len(got) != 5 || got[0] != "key00050" || got[4] != "key00054" {
		t.Errorf("sstCursor range = %v", got)
	}
}

func TestMergeIteratorNewestWins(t *testing.T) {
	// Two tables with overlapping keys: the first (newer) must win.
	newer := buildTestTable(t, []testEntry{
		{key: []byte("a"), value: []byte("new-a")},
		{key: []byte("c"), value: nil, tombstone: true},
	})
	older := buildTestTable(t, []testEntry{
		{key: []byte("a"), value: []byte("old-a")},
		{key: []byte("b"), value: []byte("old-b")},
		{key: []byte("c"), value: []byte("old-c")},
	})
	rs := &readStats{}
	m, err := newMergeIterator([]cursor{newSSTCursor(newer, nil, nil, rs), newSSTCursor(older, nil, nil, rs)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	var got []string
	var vals []string
	for {
		k, v, tomb, ok, err := m.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		suffix := ""
		if tomb {
			suffix = "!"
		}
		got = append(got, string(k)+suffix)
		vals = append(vals, string(v))
	}
	want := []string{"a", "b", "c!"}
	if len(got) != len(want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merge[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if vals[0] != "new-a" {
		t.Errorf("duplicate key resolved to %q, want new-a", vals[0])
	}
}

func TestMergeIteratorEmptySources(t *testing.T) {
	m, err := newMergeIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, m); len(got) != 0 {
		t.Errorf("empty merge yielded %v", got)
	}
}

// Table cursors hand out slices of a buffer they overwrite on the next
// chunk read, so the merge must not touch a source between emitting its
// entry and the caller's next call. Three tables far larger than a chunk,
// overlapping key by key, make every cursor reload many times while the
// others sit on live entries.
func TestMergeIteratorSlicesSurviveChunkReloads(t *testing.T) {
	const n = 3000
	pad := string(make([]byte, 80))
	table := func(gen, start, step int) *sstable {
		var es []testEntry
		for i := start; i < n; i += step {
			es = append(es, testEntry{key: []byte(fmt.Sprintf("key%05d", i)), value: []byte(fmt.Sprintf("g%d-%05d%s", gen, i, pad))})
		}
		return buildTestTable(t, es)
	}
	// Newest first: every 3rd key, every 2nd key, every key.
	tables := []*sstable{table(0, 0, 3), table(1, 0, 2), table(2, 0, 1)}
	if tables[0].size < 2*cursorChunkMax/3 || tables[2].size < 2*cursorChunkMax {
		t.Fatalf("tables of %d and %d bytes do not span several chunks", tables[0].size, tables[2].size)
	}
	rs := &readStats{}
	var cursors []cursor
	for _, tbl := range tables {
		cursors = append(cursors, newSSTCursor(tbl, nil, nil, rs))
	}
	m, err := newMergeIterator(cursors)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	for i := 0; i < n; i++ {
		k, v, _, ok, err := m.next()
		if err != nil || !ok {
			t.Fatalf("entry %d: ok=%v err=%v", i, ok, err)
		}
		gen := 2
		if i%3 == 0 {
			gen = 0
		} else if i%2 == 0 {
			gen = 1
		}
		if wantK, wantV := fmt.Sprintf("key%05d", i), fmt.Sprintf("g%d-%05d%s", gen, i, pad); string(k) != wantK || string(v) != wantV {
			t.Fatalf("entry %d = (%q, %q), want (%q, %q)", i, k, v[:9], wantK, wantV[:9])
		}
	}
	if _, _, _, ok, _ := m.next(); ok {
		t.Fatal("merge yielded more than the union of its sources")
	}
	if reads := rs.blockReads.Load(); reads < 6 {
		t.Fatalf("%d chunk reads: the cursors never reloaded", reads)
	}
}
