package experiment

import (
	"strings"
	"testing"
)

func TestPaperQuotesWellFormed(t *testing.T) {
	quotes := PaperQuotes()
	if len(quotes) < 15 {
		t.Fatalf("only %d quotes; the paper's Section 5 quotes more", len(quotes))
	}
	for _, q := range quotes {
		if q.Paper <= 0 {
			t.Errorf("%s: non-positive paper value %v", q.Label(), q.Paper)
		}
		if q.Load != 0.5 && q.Load != 9 {
			t.Errorf("%s: load %v is not one of the paper's assessment points", q.Label(), q.Load)
		}
		if q.Source == "" {
			t.Errorf("%s: missing source section", q.Label())
		}
		if _, err := q.Spec.NewDetector(); err != nil {
			t.Errorf("%s: spec does not build: %v", q.Label(), err)
		}
		// n*K*D is 15 or 30 for every bucketed quote, as in the paper.
		if q.Spec.Algorithm == SRAA || q.Spec.Algorithm == SARAA {
			if p := q.Spec.N * q.Spec.K * q.Spec.D; p != 15 && p != 30 {
				t.Errorf("%s: n*K*D = %d", q.Label(), p)
			}
		}
	}
}

func TestQuoteLabelDistinguishesMetric(t *testing.T) {
	rt := Quote{Spec: sraaSpec(3, 2, 5), Load: 9, Metric: MetricRT}
	loss := Quote{Spec: sraaSpec(3, 2, 5), Load: 0.5, Metric: MetricLoss}
	if rt.Label() == loss.Label() {
		t.Fatal("RT and loss quotes share a label")
	}
	if !strings.Contains(loss.Label(), "loss") {
		t.Fatalf("loss label %q does not say so", loss.Label())
	}
}

func TestEvaluateQuotesOrderingPreserved(t *testing.T) {
	quotes := []Quote{
		{Spec: sraaSpec(15, 1, 1), Load: 9, Metric: MetricRT, Paper: 6.2},
		{Spec: sraaSpec(2, 5, 3), Load: 9, Metric: MetricRT, Paper: 11.94},
	}
	cfg := SweepConfig{Replications: 1, Transactions: 8_000, Seed: 1}
	results, err := EvaluateQuotes(cfg, quotes)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	if results[0].Quote.Spec.N != 15 || results[1].Quote.Spec.N != 2 {
		t.Fatal("result order does not match input order")
	}
	// The paper's qualitative ordering must hold even at low fidelity:
	// the aggressive single-bucket config beats (2,5,3) on RT.
	if results[0].Measured >= results[1].Measured {
		t.Fatalf("(15,1,1) RT %v not below (2,5,3) RT %v",
			results[0].Measured, results[1].Measured)
	}
}

func TestEvaluateQuotesPropagatesErrors(t *testing.T) {
	bad := Quote{Spec: Spec{Algorithm: "bogus"}, Load: 9, Metric: MetricRT}
	if _, err := EvaluateQuotes(SweepConfig{Replications: 1, Transactions: 1000}, []Quote{bad}); err == nil {
		t.Fatal("bogus quote accepted")
	}
}
