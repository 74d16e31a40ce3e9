// Persistent home state: SnapshotHomes serializes every home — installed
// apps with their configurations, the append-only threat log, the active
// ledger, accepted threats and the per-home WAL watermark — through the
// shared snapcodec framing; RestoreHomes rebuilds the homes in a fresh
// fleet. Together with the extraction/verdict cache sections and the WAL
// this replaces save-on-shutdown-only persistence: a checkpoint restore
// plus a log replay reproduces the exact acknowledged state.
//
// Extraction results are deduplicated by rule-set pointer identity: homes
// sharing a catalog share *symexec.Result values through the extraction
// cache, so a hot app is serialized once into an app table and homes
// reference it by index. On restore each home gets its own InstalledApp
// (the compiled fields are unsynchronized writes) around the shared
// table entry; the fleet-wide compile cache deduplicates the compilation
// work just as it does for live installs.

package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"homeguard/internal/detect"
	"homeguard/internal/extractcache"
	"homeguard/internal/rule"
	"homeguard/internal/snapcodec"
	"homeguard/internal/symexec"
)

// Snapshot format identity for the fleet-homes section.
const (
	homesMagic   = "HGFLSNP\x00"
	homesVersion = 1
)

type homesMetaJSON struct {
	Apps  int `json:"apps"`  // app-table records following the meta record
	Homes int `json:"homes"` // home records following the app table
	// Tombstones maps removed (migrated-away) home IDs to the LSN of
	// their removal record, so replay after this checkpoint never lets an
	// older install record resurrect a removed home. Absent in snapshots
	// from fleets that never migrated (and in pre-migration snapshots —
	// the field rides format v1 compatibly).
	Tombstones map[string]uint64 `json:"tombstones,omitempty"`
}

type homeAppJSON struct {
	// Table is the app's index into the snapshot's app table.
	Table  int             `json:"t"`
	Config json.RawMessage `json:"config,omitempty"`
}

type ledgerJSON struct {
	A       string          `json:"a"`
	B       string          `json:"b"`
	Threats json.RawMessage `json:"threats"`
}

type homeSnapJSON struct {
	ID       string          `json:"id"`
	WalLSN   uint64          `json:"walLSN,omitempty"`
	Apps     []homeAppJSON   `json:"apps,omitempty"`
	Threats  json.RawMessage `json:"threats,omitempty"`
	Ledger   []ledgerJSON    `json:"ledger,omitempty"`
	Accepted json.RawMessage `json:"accepted,omitempty"`
}

// SnapshotHomes writes every home's durable state to w, returning the
// number of homes written. Each home is serialized under its own lock
// (briefly — one home at a time), so concurrent traffic to other homes
// proceeds; the snapshot is a consistent per-home cut, and the per-home
// WAL watermark lets replay bridge homes captured at different LSNs.
func (f *Fleet) SnapshotHomes(w io.Writer) (int, error) {
	var homes []*home
	for _, s := range f.shards {
		s.mu.RLock()
		for _, h := range s.homes {
			homes = append(homes, h)
		}
		s.mu.RUnlock()
	}
	sort.Slice(homes, func(i, j int) bool { return homes[i].id < homes[j].id })

	tableIdx := map[*rule.RuleSet]int{}
	var table [][]byte
	var homeRecs [][]byte
	for _, h := range homes {
		rec, err := h.snapshotLocked(tableIdx, &table)
		if err != nil {
			return 0, fmt.Errorf("fleet: snapshot home %s: %w", h.id, err)
		}
		if rec == nil {
			continue // detached concurrently: its removal record owns the story
		}
		homeRecs = append(homeRecs, rec)
	}

	sw, err := snapcodec.NewWriter(w, homesMagic, homesVersion)
	if err != nil {
		return 0, fmt.Errorf("fleet: snapshot: %w", err)
	}
	meta, err := json.Marshal(homesMetaJSON{Apps: len(table), Homes: len(homeRecs), Tombstones: f.tombstoneSnapshot()})
	if err != nil {
		return 0, err
	}
	if err := sw.Record(meta); err != nil {
		return 0, fmt.Errorf("fleet: snapshot: %w", err)
	}
	for _, rec := range table {
		if err := sw.Record(rec); err != nil {
			return 0, fmt.Errorf("fleet: snapshot: %w", err)
		}
	}
	for _, rec := range homeRecs {
		if err := sw.Record(rec); err != nil {
			return 0, fmt.Errorf("fleet: snapshot: %w", err)
		}
	}
	if err := sw.Close(); err != nil {
		return 0, fmt.Errorf("fleet: snapshot: %w", err)
	}
	return len(homeRecs), nil
}

// snapshotLocked serializes one home under its lock, interning each
// app's extraction result into the shared app table. It returns a nil
// record (no error) for a home that was detached after the caller
// collected its pointer — a removed home must not reappear in a
// checkpoint.
func (h *home) snapshotLocked(tableIdx map[*rule.RuleSet]int, table *[][]byte) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.migrated {
		return nil, nil
	}
	return h.encodeUnderLock(tableIdx, table, h.walLSN)
}

// encodeUnderLock serializes the home's durable state with the given
// WAL watermark. Callers hold h.mu. Export paths pass watermark 0: the
// importing fleet's log assigns the adopted home a fresh LSN story.
func (h *home) encodeUnderLock(tableIdx map[*rule.RuleSet]int, table *[][]byte, walLSN uint64) ([]byte, error) {
	hs := homeSnapJSON{ID: h.id, WalLSN: walLSN}
	for _, a := range h.det.Apps() {
		idx, ok := tableIdx[a.Rules]
		if !ok {
			// The synthetic Result carries exactly what detection needs:
			// the app metadata and its rules. Warnings and path counts are
			// extraction diagnostics, reported at install time and gone.
			rec, err := extractcache.MarshalResult(&symexec.Result{App: a.Info, Rules: a.Rules})
			if err != nil {
				return nil, fmt.Errorf("app %q: %w", a.Info.Name, err)
			}
			idx = len(*table)
			*table = append(*table, rec)
			tableIdx[a.Rules] = idx
		}
		cb, err := detect.MarshalConfig(a.Config)
		if err != nil {
			return nil, fmt.Errorf("app %q config: %w", a.Info.Name, err)
		}
		hs.Apps = append(hs.Apps, homeAppJSON{Table: idx, Config: cb})
	}
	var err error
	if hs.Threats, err = detect.MarshalThreats(h.threats); err != nil {
		return nil, fmt.Errorf("threat log: %w", err)
	}
	for _, e := range h.ledger {
		tb, err := detect.MarshalThreats(e.threats)
		if err != nil {
			return nil, fmt.Errorf("ledger pair (%s,%s): %w", e.a, e.b, err)
		}
		hs.Ledger = append(hs.Ledger, ledgerJSON{A: e.a, B: e.b, Threats: tb})
	}
	if hs.Accepted, err = detect.MarshalThreats(h.det.Accepted()); err != nil {
		return nil, fmt.Errorf("accepted: %w", err)
	}
	return json.Marshal(hs)
}

// RestoreHomes rebuilds homes from a snapshot written by SnapshotHomes,
// returning the number of homes restored. Apps are re-registered through
// detect.RestoreInstalled — bookkeeping only, no re-detection: the
// threats the original installs produced are restored verbatim, so
// recovery time is deserialization plus compilation (deduplicated
// fleet-wide), not a re-run of every solver call since the beginning of
// time. Restoring into a fleet that already has one of the snapshot's
// homes populated is an error (restore is a boot-time operation).
func (f *Fleet) RestoreHomes(r io.Reader) (int, error) {
	sr, err := snapcodec.NewReader(r, homesMagic, homesVersion)
	if err != nil {
		return 0, fmt.Errorf("fleet: restore: %w", err)
	}
	rec, err := sr.Next()
	if err != nil {
		return 0, fmt.Errorf("fleet: restore: meta: %w", err)
	}
	var meta homesMetaJSON
	if err := json.Unmarshal(rec, &meta); err != nil {
		return 0, fmt.Errorf("%w: meta: %v", snapcodec.ErrCorrupt, err)
	}
	if len(meta.Tombstones) > 0 {
		f.tombMu.Lock()
		for id, lsn := range meta.Tombstones {
			if lsn > f.tombstones[id] {
				f.tombstones[id] = lsn
			}
		}
		f.tombMu.Unlock()
	}
	table := make([]*symexec.Result, 0, meta.Apps)
	for i := 0; i < meta.Apps; i++ {
		rec, err := sr.Next()
		if err != nil {
			return 0, fmt.Errorf("fleet: restore: app table %d: %w", i, err)
		}
		res, err := extractcache.UnmarshalResult(rec)
		if err != nil {
			return 0, fmt.Errorf("fleet: restore: app table %d: %w", i, err)
		}
		table = append(table, res)
	}
	restored := 0
	for i := 0; i < meta.Homes; i++ {
		rec, err := sr.Next()
		if err != nil {
			return restored, fmt.Errorf("fleet: restore: home %d: %w", i, err)
		}
		var hs homeSnapJSON
		if err := json.Unmarshal(rec, &hs); err != nil {
			return restored, fmt.Errorf("%w: home %d: %v", snapcodec.ErrCorrupt, i, err)
		}
		if err := f.restoreHome(&hs, table); err != nil {
			return restored, err
		}
		restored++
	}
	// Drain the trailer so the checksum verifies and the reader stops at
	// the section boundary (sections concatenate in one file).
	if _, err := sr.Next(); err != io.EOF {
		if err == nil {
			return restored, fmt.Errorf("%w: records beyond the declared counts", snapcodec.ErrCorrupt)
		}
		return restored, fmt.Errorf("fleet: restore: %w", err)
	}
	return restored, nil
}

func (f *Fleet) restoreHome(hs *homeSnapJSON, table []*symexec.Result) error {
	h := f.homeFor(hs.ID)
	h.mu.Lock()
	defer h.mu.Unlock()
	return f.restoreHomeUnderLock(h, hs, table)
}

// restoreHomeUnderLock rebuilds one home's state from its snapshot
// record. Callers hold h.mu and guarantee the home is empty.
func (f *Fleet) restoreHomeUnderLock(h *home, hs *homeSnapJSON, table []*symexec.Result) error {
	if len(h.det.Apps()) > 0 {
		return fmt.Errorf("fleet: restore: home %q is not empty", hs.ID)
	}
	for _, ha := range hs.Apps {
		if ha.Table < 0 || ha.Table >= len(table) {
			return fmt.Errorf("%w: home %q: app table index %d of %d", snapcodec.ErrCorrupt, hs.ID, ha.Table, len(table))
		}
		cfg, err := detect.UnmarshalConfig(ha.Config)
		if err != nil {
			return fmt.Errorf("fleet: restore: home %q: %w", hs.ID, err)
		}
		h.det.RestoreInstalled(detect.NewInstalledApp(table[ha.Table], cfg))
	}
	var err error
	if h.threats, err = detect.UnmarshalThreats(hs.Threats); err != nil {
		return fmt.Errorf("fleet: restore: home %q threat log: %w", hs.ID, err)
	}
	for _, le := range hs.Ledger {
		ts, err := detect.UnmarshalThreats(le.Threats)
		if err != nil {
			return fmt.Errorf("fleet: restore: home %q ledger: %w", hs.ID, err)
		}
		h.ledger = append(h.ledger, ledgerEntry{a: le.A, b: le.B, threats: ts})
	}
	if len(hs.Accepted) > 0 {
		acc, err := detect.UnmarshalThreats(hs.Accepted)
		if err != nil {
			return fmt.Errorf("fleet: restore: home %q accepted: %w", hs.ID, err)
		}
		for _, t := range acc {
			h.det.Accept(t)
		}
	}
	h.walLSN = hs.WalLSN
	h.detSeen = detectorTotalsOf(h.det.Stats())
	return nil
}
