// Package streamindex is the one map from stream id to slot shared by
// the fleet engine's shards and the journal replay verifier: a flat
// open-addressed table keyed by the splitmix64 mix of the id. Id 0 is
// reserved as the empty marker, so callers that have a stream 0 keep it
// outside the index.
package streamindex

// Mix is the splitmix64 finalizer over a stream id. The fleet's
// ObserveBatch computes it once per item: the low bits pick the shard
// and the high bits place the id in that shard's index, so the two
// choices use disjoint bits and every shard's table fills evenly.
func Mix(id uint64) uint64 {
	x := id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// entry maps one open stream to its slot. An entry whose id is 0 is
// empty: no open stream can carry it.
type entry struct {
	id   uint64
	slot int32
}

// minLog is log2 of a fresh index's length.
const minLog = 3

// Index is an open-addressed map from stream id to slot: one flat
// table, probed linearly from the top bits of the id's mix. Its length
// is a power of two and it is kept at most half full, so a probe run is
// short and always ends at an empty entry. Deletion shifts the rest of
// the run back instead of leaving tombstones, so open/close churn at a
// fixed population never grows the table. The table grows only in
// Insert, off the ingestion path.
type Index struct {
	tab   []entry
	shift uint // 64 - log2(len(tab)): h>>shift is an id's home entry
	n     int  // occupied entries
}

// New returns an empty index of the minimum length.
func New() Index {
	return Index{tab: make([]entry, 1<<minLog), shift: 64 - minLog}
}

// Len returns the number of ids in the index.
func (x *Index) Len() int { return x.n }

// TableLen returns the length of the table, a power of two at least
// twice Len.
func (x *Index) TableLen() int { return len(x.tab) }

// Lookup returns the slot of the open stream id, whose mix is h, or -1
// when the stream is not open.
func (x *Index) Lookup(id, h uint64) int32 {
	mask := uint64(len(x.tab) - 1)
	for i := h >> x.shift; ; i = (i + 1) & mask {
		e := &x.tab[i]
		if e.id == 0 {
			return -1
		}
		if e.id == id {
			return e.slot
		}
	}
}

// Insert maps id, whose mix is h, to slot. The caller guarantees id is
// non-zero and not yet present.
func (x *Index) Insert(id, h uint64, slot int32) {
	if 2*(x.n+1) > len(x.tab) {
		x.grow()
	}
	x.place(entry{id: id, slot: slot}, h)
	x.n++
}

// place stores e in the first empty entry of its probe run.
func (x *Index) place(e entry, h uint64) {
	mask := uint64(len(x.tab) - 1)
	i := h >> x.shift
	for x.tab[i].id != 0 {
		i = (i + 1) & mask
	}
	x.tab[i] = e
}

// grow doubles the table and re-places every entry.
func (x *Index) grow() {
	old := x.tab
	x.tab = make([]entry, 2*len(old))
	x.shift--
	for _, e := range old {
		if e.id != 0 {
			x.place(e, Mix(e.id))
		}
	}
}

// Remove deletes id, whose mix is h, and returns its slot, or -1 when
// the stream is not open. Backward-shift deletion: each later entry of
// the probe run that may legally sit in the hole (its home is not
// between the hole and its current position) moves into it, and the
// hole moves on, until the run ends.
func (x *Index) Remove(id, h uint64) int32 {
	if id == 0 {
		return -1 // id 0 marks empty entries and is never open
	}
	mask := uint64(len(x.tab) - 1)
	i := h >> x.shift
	for ; x.tab[i].id != id; i = (i + 1) & mask {
		if x.tab[i].id == 0 {
			return -1
		}
	}
	slot := x.tab[i].slot
	for j := (i + 1) & mask; x.tab[j].id != 0; j = (j + 1) & mask {
		home := Mix(x.tab[j].id) >> x.shift
		if (j-home)&mask >= (j-i)&mask {
			x.tab[i] = x.tab[j]
			i = j
		}
	}
	x.tab[i] = entry{}
	x.n--
	return slot
}
