package streamindex

import (
	"math/bits"
	"testing"

	"rejuv/internal/xrand"
)

// collidingIDs returns stream ids whose mixes crowd the ends of every
// table length: most have their top three bits set, so their home
// entry lies in the last eighth of any table and their probe runs share
// entries and wrap past the end; the rest home in the first eighth,
// where the wrapped runs land. Removing from such runs exercises every
// case of backward-shift deletion.
func collidingIDs() []uint64 {
	var tail, head []uint64
	for id := uint64(1); len(tail) < 24 || len(head) < 8; id++ {
		switch Mix(id) >> 61 {
		case 7:
			if len(tail) < 24 {
				tail = append(tail, id)
			}
		case 0:
			if len(head) < 8 {
				head = append(head, id)
			}
		}
	}
	return append(tail, head...)
}

// indexModel drives an Index and a map oracle through the same
// open/close/lookup sequence, mirroring how the fleet shards and the
// replay verifier use the index, and checks the table's invariants
// after every step.
type indexModel struct {
	t      testing.TB
	x      Index
	oracle map[uint64]int32
	next   int32
}

func newIndexModel(t testing.TB) *indexModel {
	return &indexModel{t: t, x: New(), oracle: make(map[uint64]int32)}
}

// step applies op (0 open, 1 close, 2 lookup) to id.
func (m *indexModel) step(op int, id uint64) {
	m.t.Helper()
	h := Mix(id)
	want, open := m.oracle[id]
	if !open {
		want = -1
	}
	switch op {
	case 0:
		if open {
			return // callers reject an open id before inserting
		}
		m.x.Insert(id, h, m.next)
		m.oracle[id] = m.next
		m.next++
	case 1:
		if got := m.x.Remove(id, h); got != want {
			m.t.Fatalf("remove(%d) = %d, want %d", id, got, want)
		}
		delete(m.oracle, id)
	default:
		if got := m.x.Lookup(id, h); got != want {
			m.t.Fatalf("lookup(%d) = %d, want %d", id, got, want)
		}
	}
	m.check()
}

// check verifies the table against the oracle: power-of-two length at
// most half full, the shift matching the length, every oracle entry
// found, and no empty entry between any entry and its home (the
// linear-probing invariant backward-shift deletion must preserve).
func (m *indexModel) check() {
	m.t.Helper()
	x := &m.x
	n := len(x.tab)
	if n < 1<<minLog || n&(n-1) != 0 {
		m.t.Fatalf("table length %d is not a power of two >= %d", n, 1<<minLog)
	}
	if want := uint(64 - bits.TrailingZeros(uint(n))); x.shift != want {
		m.t.Fatalf("shift = %d for length %d, want %d", x.shift, n, want)
	}
	if x.n != len(m.oracle) || 2*x.n > n {
		m.t.Fatalf("index holds %d entries in %d, oracle %d", x.n, n, len(m.oracle))
	}
	mask := uint64(n - 1)
	occupied := 0
	for p, e := range x.tab {
		if e.id == 0 {
			continue
		}
		occupied++
		if slot, ok := m.oracle[e.id]; !ok || slot != e.slot {
			m.t.Fatalf("entry %d maps %d -> %d, oracle has %d (open %v)", p, e.id, e.slot, slot, ok)
		}
		for i := Mix(e.id) >> x.shift; i != uint64(p); i = (i + 1) & mask {
			if x.tab[i].id == 0 {
				m.t.Fatalf("empty entry %d inside the probe run of %d (home %d, at %d)",
					i, e.id, Mix(e.id)>>x.shift, p)
			}
		}
	}
	if occupied != x.n {
		m.t.Fatalf("%d occupied entries, count says %d", occupied, x.n)
	}
	for id, slot := range m.oracle {
		if got := x.Lookup(id, Mix(id)); got != slot {
			m.t.Fatalf("lookup(%d) = %d, oracle %d", id, got, slot)
		}
	}
}

// TestStreamIndexMatchesMap runs random open/close/lookup sequences over
// colliding ids against a map oracle, through growth from the minimum
// length and through deletions from wrapped probe runs.
func TestStreamIndexMatchesMap(t *testing.T) {
	ids := collidingIDs()
	rng := xrand.NewStream(17, 1)
	m := newIndexModel(t)
	for i := 0; i < 20_000; i++ {
		m.step(rng.Intn(3), ids[rng.Intn(len(ids))])
	}
	// Id 0 marks empty entries; it is never open.
	if got := m.x.Lookup(0, Mix(0)); got != -1 {
		t.Errorf("lookup(0) = %d, want -1", got)
	}
	if got := m.x.Remove(0, Mix(0)); got != -1 {
		t.Errorf("remove(0) = %d, want -1", got)
	}
	m.check()
}

// FuzzStreamIndex interprets each byte pair as one operation (first
// byte) on one colliding id (second byte) and checks the index against
// the map oracle after every step.
func FuzzStreamIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 0, 2, 1, 2, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 24, 0, 25, 1, 3, 1, 0, 2, 24, 2, 25, 2, 5})
	ids := collidingIDs()
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newIndexModel(t)
		for i := 0; i+1 < len(data); i += 2 {
			m.step(int(data[i]%3), ids[int(data[i+1])%len(ids)])
		}
	})
}
