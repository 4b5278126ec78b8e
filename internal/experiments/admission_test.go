package experiments

import "testing"

// TestAdmissionFairness checks the admission-control figure's acceptance
// claims: at every capacity the source never observes more concurrency
// than -max-inflight allows, every admitted session finishes with the
// full answer set in the same virtual time (spread 0 — perfect fairness),
// shedding happens exactly when capacity is below the session count, and
// the whole experiment is deterministic on the virtual clock.
func TestAdmissionFairness(t *testing.T) {
	res, err := AdmissionFairness()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	byC := map[int]AdmissionPoint{}
	for _, p := range res.Points {
		byC[p.MaxInflight] = p
		if p.SourcePeak > p.MaxInflight {
			t.Errorf("C=%d: source observed %d concurrent calls, bound is %d",
				p.MaxInflight, p.SourcePeak, p.MaxInflight)
		}
		if p.PoolPeak > p.MaxInflight {
			t.Errorf("C=%d: pool peak %d exceeds capacity", p.MaxInflight, p.PoolPeak)
		}
		if p.Admitted+p.Shed != res.Sessions {
			t.Errorf("C=%d: admitted %d + shed %d != %d sessions",
				p.MaxInflight, p.Admitted, p.Shed, res.Sessions)
		}
		if len(p.SessionTAllMs) != p.Admitted {
			t.Errorf("C=%d: %d Tall samples for %d admitted sessions",
				p.MaxInflight, len(p.SessionTAllMs), p.Admitted)
		}
		if p.SpreadMs != 0 {
			t.Errorf("C=%d: Tall spread %.0fms across sessions, want 0 (unfair sharing)",
				p.MaxInflight, p.SpreadMs)
		}
	}
	// Below K=8 sessions the shed policy rejects the overflow; at and
	// above it everyone gets in.
	if byC[4].Admitted != 4 || byC[4].Shed != 4 {
		t.Errorf("C=4: admitted/shed = %d/%d, want 4/4", byC[4].Admitted, byC[4].Shed)
	}
	for _, c := range []int{8, 16, 32} {
		if byC[c].Shed != 0 {
			t.Errorf("C=%d: shed %d sessions, want 0", c, byC[c].Shed)
		}
	}
	// More lanes per session means faster sessions: the fair share grows
	// with capacity, so Tall must not increase.
	if byC[16].SessionTAllMs[0] > byC[8].SessionTAllMs[0] {
		t.Errorf("Tall grew with capacity: C=8 %.0fms -> C=16 %.0fms",
			byC[8].SessionTAllMs[0], byC[16].SessionTAllMs[0])
	}
	if byC[32].SessionTAllMs[0] > byC[16].SessionTAllMs[0] {
		t.Errorf("Tall grew with capacity: C=16 %.0fms -> C=32 %.0fms",
			byC[16].SessionTAllMs[0], byC[32].SessionTAllMs[0])
	}

	// Determinism: a second run reproduces every point bit for bit.
	res2, err := AdmissionFairness()
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		p, q := res.Points[i], res2.Points[i]
		if p.MaxInflight != q.MaxInflight || p.Admitted != q.Admitted ||
			p.Shed != q.Shed || p.GrantsPerSession != q.GrantsPerSession ||
			p.PoolPeak != q.PoolPeak || p.SourcePeak != q.SourcePeak ||
			p.SpreadMs != q.SpreadMs {
			t.Errorf("run 2 point %d = %+v, want %+v (nondeterministic)", i, q, p)
		}
		for j := range p.SessionTAllMs {
			if p.SessionTAllMs[j] != q.SessionTAllMs[j] {
				t.Errorf("run 2 C=%d session %d Tall = %.2f, want %.2f",
					p.MaxInflight, j, q.SessionTAllMs[j], p.SessionTAllMs[j])
			}
		}
	}

	if s := FormatAdmission(res); s == "" {
		t.Error("FormatAdmission returned empty string")
	}
}
