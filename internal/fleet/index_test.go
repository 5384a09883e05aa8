package fleet

import (
	"math/bits"
	"testing"
	"time"

	"rejuv/internal/xrand"
)

// collidingIDs returns stream ids whose mixes crowd the ends of every
// table length: most have their top three bits set, so their home
// entry lies in the last eighth of any table and their probe runs share
// entries and wrap past the end; the rest home in the first eighth,
// where the wrapped runs land. Removing from such runs exercises every
// case of backward-shift deletion.
func collidingIDs() []StreamID {
	var tail, head []StreamID
	for id := StreamID(1); len(tail) < 24 || len(head) < 8; id++ {
		switch mix(id) >> 61 {
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

// indexModel drives a streamIndex and a map oracle through the same
// open/close/lookup sequence, mirroring how shard.open and shard.close
// use the index, and checks the table's invariants after every step.
type indexModel struct {
	t      testing.TB
	x      streamIndex
	oracle map[StreamID]int32
	next   int32
}

func newIndexModel(t testing.TB) *indexModel {
	return &indexModel{t: t, x: newStreamIndex(), oracle: make(map[StreamID]int32)}
}

// step applies op (0 open, 1 close, 2 lookup) to id.
func (m *indexModel) step(op int, id StreamID) {
	m.t.Helper()
	h := mix(id)
	want, open := m.oracle[id]
	if !open {
		want = -1
	}
	switch op {
	case 0:
		if open {
			return // shard.open rejects an open id before inserting
		}
		m.x.insert(id, h, m.next)
		m.oracle[id] = m.next
		m.next++
	case 1:
		if got := m.x.remove(id, h); got != want {
			m.t.Fatalf("remove(%d) = %d, want %d", id, got, want)
		}
		delete(m.oracle, id)
	default:
		if got := m.x.lookup(id, h); got != want {
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
	if n < 1<<minIndexLog || n&(n-1) != 0 {
		m.t.Fatalf("table length %d is not a power of two >= %d", n, 1<<minIndexLog)
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
		for i := mix(e.id) >> x.shift; i != uint64(p); i = (i + 1) & mask {
			if x.tab[i].id == 0 {
				m.t.Fatalf("empty entry %d inside the probe run of %d (home %d, at %d)",
					i, e.id, mix(e.id)>>x.shift, p)
			}
		}
	}
	if occupied != x.n {
		m.t.Fatalf("%d occupied entries, count says %d", occupied, x.n)
	}
	for id, slot := range m.oracle {
		if got := x.lookup(id, mix(id)); got != slot {
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
	if got := m.x.lookup(0, mix(0)); got != -1 {
		t.Errorf("lookup(0) = %d, want -1", got)
	}
	if got := m.x.remove(0, mix(0)); got != -1 {
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

// TestOpenCloseChurnKeepsIndexBounded extends the bounded-memory
// guarantee of TestOpenCloseChurnRecyclesSlots to the stream index:
// 10⁵ open/close cycles at a fixed population, each opening an id never
// seen before, leave the table and the slot arrays at the length they
// reached when the population was first opened. Deletion leaves no
// tombstones, so fresh ids cannot crowd the table.
func TestOpenCloseChurnKeepsIndexBounded(t *testing.T) {
	e, err := New(Config{Classes: testClasses(), Shards: 1, Now: newFakeClock(time.Millisecond).Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const population, cycles = 300, 100_000
	for id := StreamID(1); id <= population; id++ {
		if err := e.OpenStream(id, "web-sraa"); err != nil {
			t.Fatal(err)
		}
	}
	s := &e.shards[0]
	tabLen, slots := len(s.index.tab), len(s.ids)
	for c := 0; c < cycles; c++ {
		oldest, fresh := StreamID(c+1), StreamID(c+1+population)
		if err := e.CloseStream(oldest); err != nil {
			t.Fatal(err)
		}
		if err := e.OpenStream(fresh, "web-sraa"); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.index.tab) != tabLen || len(s.ids) != slots {
		t.Errorf("after %d churn cycles: table %d entries (was %d), %d slots (was %d)",
			cycles, len(s.index.tab), tabLen, len(s.ids), slots)
	}
	if s.index.n != population {
		t.Errorf("index holds %d streams, want %d", s.index.n, population)
	}
	if st := e.Stats(); st.OpenStreams != population {
		t.Errorf("OpenStreams = %d, want %d", st.OpenStreams, population)
	}
}
