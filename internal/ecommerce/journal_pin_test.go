package ecommerce

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rejuv/internal/core"
	"rejuv/internal/journal"
	"rejuv/internal/sched"
)

// The digests below pin the complete journal bytes — model records and
// every DES kernel record (scheduled, fired, cancelled) — of three
// replications. Any change to event sequencing, RNG draw order, cancel
// or reschedule semantics moves them, so a kernel or station refactor
// that claims "same behaviour" must leave them untouched. Regenerate
// only for a deliberate behaviour change, and say so in the change log.
const (
	pinFig16Cell    = "3f9a09bfe29ee1c544b8210645873bf881fa2751617ee72cd70b5ba219276a6f"
	pinModulated    = "ad92c6f097f14a066d326ada6fbccb3ad4ef74027ca7f134c54d6874fc3b93db"
	pinClusterTiers = "208f2d22c7e18d38d70b0bdcfe25923a15a9729aad214e46a9a10fe99c727855"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runPinnedModel runs cfg with an SRAA (2, 5, 3) detector at the
// paper's baseline, journaling model and kernel records, and returns
// the journal bytes with the result.
func runPinnedModel(t *testing.T, cfg Config) ([]byte, Result) {
	t.Helper()
	det, err := core.NewSRAA(core.SRAAConfig{
		SampleSize: 2, Buckets: 5, Depth: 3,
		Baseline: core.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, det)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "journal_pin_test", Seed: cfg.Seed})
	m.Journal(jw)
	m.JournalKernel(jw)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestJournalPinFig16Cell pins one Fig. 16 cell: SRAA (2, 5, 3) at
// load 8 with the paper's aging mechanisms, so GC stalls reschedule
// completions and rejuvenations cancel them.
func TestJournalPinFig16Cell(t *testing.T) {
	b, res := runPinnedModel(t, Config{
		ArrivalRate: 8 * 0.2, Transactions: 5_000, Seed: 3, Stream: 4_001,
	})
	if res.GCs == 0 || res.Rejuvenations == 0 {
		t.Fatalf("cell exercised no GC (%d) or rejuvenation (%d)", res.GCs, res.Rejuvenations)
	}
	if got := digest(b); got != pinFig16Cell {
		t.Fatalf("Fig. 16 cell journal digest = %s, want %s (%d bytes)", got, pinFig16Cell, len(b))
	}
}

// TestJournalPinModulated pins a cell that exercises every Model
// event kind: the burst overlay and a cycling workload shape cancel
// and resample the pending arrival, periodic rejuvenation composes
// with the detector, and periodic rejuvenations landing inside a
// one-minute pause cancel and re-arm the pause's end event.
func TestJournalPinModulated(t *testing.T) {
	b, res := runPinnedModel(t, Config{
		ArrivalRate:          1.4,
		BurstFactor:          3,
		BurstOn:              40,
		BurstOff:             200,
		Workload:             DiurnalWorkload(600, 1.5, 4),
		RejuvenationPause:    60,
		RejuvenationInterval: 300,
		Transactions:         5_000,
		Seed:                 7,
		Stream:               2,
	})
	if res.Rejuvenations == 0 || res.GCs == 0 {
		t.Fatalf("modulated cell exercised no rejuvenation (%d) or GC (%d)", res.Rejuvenations, res.GCs)
	}
	if got := digest(b); got != pinModulated {
		t.Fatalf("modulated cell journal digest = %s, want %s (%d bytes)", got, pinModulated, len(b))
	}
}

// TestJournalPinClusterTiers pins a four-host cluster under the tiered,
// deadline-aware scheduler: partial actions reschedule in-flight
// completions and GC ends, full restarts cancel them, and governor
// wake-ups are cancelled and re-armed.
func TestJournalPinClusterTiers(t *testing.T) {
	sc := sched.Scheduled(4, 30)
	cfg := scheduledClusterConfig(&sc)
	cfg.Transactions = 20_000
	c, err := NewCluster(cfg, paperDetectorFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Meta{CreatedBy: "journal_pin_test", Seed: cfg.Seed})
	c.Journal(jw)
	c.sim.Journal(jw)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Partial == 0 || res.Deferred == 0 || res.Rejuvenations == res.Partial {
		t.Fatalf("cluster run exercised partial=%d deferred=%d full=%d; want all three",
			res.Partial, res.Deferred, res.Rejuvenations-res.Partial)
	}
	if got := digest(buf.Bytes()); got != pinClusterTiers {
		t.Fatalf("cluster journal digest = %s, want %s (%d bytes)", got, pinClusterTiers, buf.Len())
	}
}
