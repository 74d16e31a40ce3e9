package audit_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"homeguard/internal/audit"
	"homeguard/internal/experiments"
)

// churnedStore builds a small store through a few revisions of
// submits, updates in both directions and a remove, so its snapshot
// carries apps, cross and intra pair verdicts and a revision history.
func churnedStore(tb testing.TB) *audit.Auditor {
	tb.Helper()
	const n, pool = 8, 4
	base := experiments.SyntheticSparseApps(n, pool, 1)
	variant := experiments.SyntheticSparseApps(n, pool, 2)
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 1})
	for _, b := range []audit.Batch{
		{Upserts: base},
		{Upserts: variant[:3]},
		{Removes: []string{base[5].Res.App.Name}, Upserts: variant[6:]},
		{Upserts: base[1:3]},
	} {
		if _, err := aud.Apply(b); err != nil {
			tb.Fatalf("apply: %v", err)
		}
	}
	return aud
}

// earlierCheckpoint is churnedStore's snapshot as written before the
// verdict table was keyed by index slot: the checkpoint format must not
// have changed with it.
var earlierCheckpoint = filepath.Join("testdata", "churned_store.snap")

// TestRestoreEarlierCheckpoint restores a checkpoint section written by
// the earlier, name-keyed verdict table and requires the restored
// auditor to serve the same store and to write the file back byte for
// byte.
func TestRestoreEarlierCheckpoint(t *testing.T) {
	data, err := os.ReadFile(earlierCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	g := audit.NewAuditor(audit.AuditorOptions{Workers: 2})
	if err := g.Restore(bytes.NewReader(data)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	var out bytes.Buffer
	if err := g.Snapshot(&out); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("re-snapshot of the restored store differs from the checkpoint (%d vs %d bytes)", out.Len(), len(data))
	}
	assertAuditorsEqual(t, churnedStore(t), g)
}

// FuzzAuditorRestore feeds arbitrary bytes to Auditor.Restore: it must
// fail with an error or yield an auditor whose snapshot is exactly the
// section it was restored from (Restore reads one section and ignores
// what follows), never panic.
func FuzzAuditorRestore(f *testing.F) {
	var live bytes.Buffer
	if err := churnedStore(f).Snapshot(&live); err != nil {
		f.Fatal(err)
	}
	f.Add(live.Bytes())
	var empty bytes.Buffer
	if err := audit.NewAuditor(audit.AuditorOptions{}).Snapshot(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		a := audit.NewAuditor(audit.AuditorOptions{Workers: 1})
		if err := a.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := a.Snapshot(&out); err != nil {
			t.Fatalf("Snapshot of a restored auditor: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("restored auditor's snapshot (%d bytes) is not the section it was restored from", out.Len())
		}
	})
}
