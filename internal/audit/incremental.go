package audit

// The incremental audit engine: where Run recomputes a whole store from
// scratch, the long-lived Auditor holds the store's footprint-channel
// index, its compiled apps and every pair's current verdict across
// revisions, so applying a batch of app submits/updates/removes costs
// O(Δ · overlap) — only the changed apps re-extract and recompile, and
// only the pairs whose footprints actually intersect a changed app are
// re-checked. Untouched pairs keep their cached verdicts, which is sound
// because a pair's threats are a pure function of its two apps and the
// mode universe (the same purity the parallel engine in audit.go relies
// on to fan pairs out across workers), and complete because the footprint
// prune is sound: a pair that stops sharing a channel provably has no
// threats, so dropping its verdict without solving is exact.
//
// Every applied batch produces a monotonically versioned Revision with a
// findings delta — threats added and resolved per app pair, in serial
// install order — published through internal/events and queryable as a
// feed: FindingsSince(rev) replays the retained per-revision deltas, or
// answers with a Reset snapshot when the asked-for revision has aged out
// of the bounded history. The full active set (Findings) is byte-identical
// to a from-scratch Run over the current store, pinned by the churn
// property test in incremental_test.go.
//
// Steady-state memory. A churn revision re-checks hundreds of pairs, and
// whatever it allocates is garbage by the next one, so the collector's
// cost lands on revision latency. Three rules keep a revision lean:
//
//   - Per-pair state is cleared, not accumulated. The worker detectors
//     live as long as the auditor, and every pair check starts by
//     clearing the detector's solver cache and enum-input options (they
//     are rule-pair-scoped by design; see detect.DetectAppPair), so a
//     detector holds one pair's state at a time and an app re-upserted
//     under the same name never meets a stale entry.
//   - Scratch is sized to the batch. The task list, the per-task results
//     and the findings-delta buffers (applyScratch) are reused across
//     revisions and cleared after each; a bulk batch that grows them past
//     a churn batch's needs (the store build) has them dropped, not kept.
//     Tables are keyed by index slot (pairKey), not by app-name pairs, and
//     the delta is ordered by sorting small index records.
//   - Solver problems are reused. Each worker detector Resets one
//     solver.Problem per query instead of building a fresh one, and
//     checks whose witness nobody reads ask the solver for the verdict
//     alone.

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"homeguard/internal/detect"
	"homeguard/internal/events"
	"homeguard/internal/extractcache"
	"homeguard/internal/obs"
	"homeguard/internal/symexec"
	"homeguard/internal/wal"
)

// ErrUnknownApp reports a Batch remove of an app the store does not hold.
var ErrUnknownApp = errors.New("audit: app not in store")

// ErrEmptyBatch reports an Apply with no upserts and no removes.
var ErrEmptyBatch = errors.New("audit: empty batch")

// DefaultRevisionHistory bounds the per-revision deltas retained for
// FindingsSince; older feeds degrade to a Reset snapshot.
const DefaultRevisionHistory = 256

// Batch is one store mutation set: apps to submit or update (keyed by
// name — a name already in the store is an update, a new name a submit)
// and apps to remove. Removes apply before upserts, so a batch that
// removes and resubmits one name reinstalls it at the end of the store
// order.
type Batch struct {
	Upserts []App
	Removes []string
}

// Finding is one active threat attributed to its app pair. App1 is the
// earlier-installed side (App1 == App2 for intra-app threats), matching
// the serial install order the batch engine reports in.
type Finding struct {
	App1   string
	App2   string
	Threat detect.Threat
}

// Revision is the outcome of one applied batch.
type Revision struct {
	// Rev is the store revision this batch produced (monotonic from 1).
	Rev uint64
	// Added and Resolved are the findings delta against the previous
	// revision, each in serial install order.
	Added    []Finding
	Resolved []Finding
	// Apps is the store size after the batch.
	Apps int
	// Pairs counts the app pairs re-checked for this revision.
	Pairs int
	// Errors records per-app failures (extraction errors, removes of
	// unknown apps) by app name; failed upserts leave the store entry
	// unchanged.
	Errors map[string]error
	// Stats aggregates the worker detectors' counters for the batch.
	Stats detect.Stats
	// Duration is the wall-clock cost of applying the batch.
	Duration time.Duration
}

// Feed is a findings-feed response: the delta between a client's last
// seen revision and the store's current one.
type Feed struct {
	// Rev is the store's current revision; Since echoes the request.
	Rev   uint64
	Since uint64
	// Reset reports that Since has aged out of the retained history:
	// Added then carries the full active set and the client must drop
	// its local state instead of applying a delta.
	Reset    bool
	Added    []Finding
	Resolved []Finding
}

// AuditorOptions tune an incremental auditor.
type AuditorOptions struct {
	// Workers bounds the pair-check worker pool; 0 selects GOMAXPROCS.
	Workers int
	// Detector is applied to every worker's detector (modes, ablations,
	// shared verdict cache).
	Detector detect.Options
	// Extract, when non-nil, is the shared extraction cache upsert
	// sources run through.
	Extract *extractcache.Cache
	// History bounds the revisions retained for FindingsSince (default
	// DefaultRevisionHistory).
	History int
	// Obs, when non-nil, records an "audit.apply" span per batch and
	// publishes the homeguard_audit_* revision metrics.
	Obs *obs.Observer
	// Events, when non-nil, receives one revision event plus one finding
	// event per added/resolved finding for every applied batch.
	Events *events.Writer
}

// storeApp is one installed store entry: the compiled app, its index
// slot, its position in the store (install) order, and the slots of the
// apps it currently has findings with.
type storeApp struct {
	name string
	app  *detect.InstalledApp
	slot int
	pos  int
	// peers is the app's row of the verdict table's adjacency: the slot of
	// every app it shares a verdict with (its own slot for the intra
	// pair), so invalidation walks O(degree) entries. It mirrors verdicts
	// exactly: a pair is in both peers lists iff it has a verdict.
	peers []int32
}

// pairKey addresses one app pair by index slot, lower slot first (both
// halves equal for the intra-app pair). A slot is stable while its app
// stays installed — updates keep it, and a removed app's pairs all
// resolve before its slot is freed for reuse — so the key is valid for
// the verdict's lifetime. Which side is earlier-installed is read off
// the two apps' positions when a finding is emitted: relative store order
// never changes while both apps stay installed.
type pairKey uint64

func keyOf(x, y *storeApp) pairKey {
	lo, hi := x.slot, y.slot
	if lo > hi {
		lo, hi = hi, lo
	}
	return pairKey(uint64(lo)<<32 | uint64(hi))
}

// ordered returns the pair's two apps, earlier-installed first.
func ordered(x, y *storeApp) (*storeApp, *storeApp) {
	if y.pos < x.pos {
		return y, x
	}
	return x, y
}

// Auditor is the long-lived incremental store auditor. All methods are
// goroutine-safe; Apply calls serialize, with the pair checks of one
// batch fanning out over an internal worker pool.
type Auditor struct {
	mu       sync.Mutex
	opts     AuditorOptions
	workers  int
	idx      *detect.FootprintIndex
	compiler *detect.Detector // Precompile only: attaches compiled sets single-threaded

	slots  []*storeApp // by index slot; nil entries are free
	free   []int       // freed slots, reused so the index never grows with churn
	byName map[string]*storeApp
	order  []*storeApp // store (install) order; pos fields mirror indices

	// verdicts holds the current threats of every pair that HAS threats
	// (clean pairs are absent — the delta diff treats missing as empty);
	// the storeApps' peers lists are its adjacency.
	verdicts map[pairKey][]detect.Threat

	// dets are the pair-check worker detectors, one per worker, and scr
	// the per-revision work lists; both live across revisions.
	dets []*detect.Detector
	scr  applyScratch

	rev     uint64
	history []*Revision
	active  int // current finding count, for the gauge

	// wal, when attached, receives one OpAuditBatch record per applied
	// batch; walLSN is the store's recovery watermark (the LSN of the last
	// batch reflected in this auditor's state).
	wal    *wal.Log
	walLSN uint64
}

// NewAuditor returns an empty store auditor.
func NewAuditor(opts AuditorOptions) *Auditor {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.History <= 0 {
		opts.History = DefaultRevisionHistory
	}
	return &Auditor{
		opts:     opts,
		workers:  workers,
		idx:      detect.NewFootprintIndex(),
		compiler: detect.New(opts.Detector),
		byName:   map[string]*storeApp{},
		verdicts: map[pairKey][]detect.Threat{},
	}
}

// Rev returns the current store revision (0 before the first Apply).
func (a *Auditor) Rev() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rev
}

// Apps returns the store's app names in install order.
func (a *Auditor) Apps() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.order))
	for i, st := range a.order {
		out[i] = st.name
	}
	return out
}

// ActiveFindings returns the current finding count.
func (a *Auditor) ActiveFindings() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// setVerdict records a pair's threats, linking the adjacency when the
// pair had no verdict yet.
func (a *Auditor) setVerdict(x, y *storeApp, ts []detect.Threat) {
	k := keyOf(x, y)
	if _, had := a.verdicts[k]; !had {
		x.peers = append(x.peers, int32(y.slot))
		if y != x {
			y.peers = append(y.peers, int32(x.slot))
		}
	}
	a.verdicts[k] = ts
}

// dropVerdict forgets a pair's verdict and its adjacency entries,
// returning the threats it held.
func (a *Auditor) dropVerdict(x, y *storeApp) []detect.Threat {
	k := keyOf(x, y)
	ts, had := a.verdicts[k]
	if !had {
		return nil
	}
	delete(a.verdicts, k)
	x.peers = removeSlot(x.peers, y.slot)
	if y != x {
		y.peers = removeSlot(y.peers, x.slot)
	}
	return ts
}

// removeSlot deletes one occurrence of slot from peers (order is not
// kept: nothing reads peers in order).
func removeSlot(peers []int32, slot int) []int32 {
	for i, p := range peers {
		if int(p) == slot {
			last := len(peers) - 1
			peers[i] = peers[last]
			return peers[:last]
		}
	}
	return peers
}

// applyScratch is the reusable work-list storage of Apply. A steady-state
// revision fills the same buffers the previous one used instead of
// allocating them, and never holds references past its own Apply (every
// buffer is cleared before it is kept). Buffers a bulk batch grew past
// keepScratch entries — a store build re-checks every overlapping pair,
// ~44k for 2000 sparse apps — are dropped instead of kept, so what the
// auditor retains between revisions stays sized to a churn batch (a 1%
// batch on that store re-checks ~770 pairs).
type applyScratch struct {
	tasks    []pairTask
	results  [][]detect.Threat
	cands    []int32
	stale    []pairTask // pairs of changed apps that resolve without solving
	added    deltaBuf
	resolved deltaBuf
}

const keepScratch = 4096

// release clears the scratch for the next revision, dropping buffers a
// bulk batch grew.
func (s *applyScratch) release() {
	if max(cap(s.tasks), cap(s.cands), cap(s.stale), cap(s.added.fs), cap(s.resolved.fs)) > keepScratch {
		*s = applyScratch{}
		return
	}
	clear(s.tasks)
	s.tasks = s.tasks[:0]
	clear(s.results)
	s.results = s.results[:0]
	clear(s.stale)
	s.stale = s.stale[:0]
	s.added.reset()
	s.resolved.reset()
}

// pairTask is one pair to re-check: x is the earlier-installed side.
type pairTask struct {
	key  pairKey
	x, y *storeApp
}

// deltaBuf collects one side of a revision's findings delta in the order
// the phases produce it, then emits it in serial install order: ascending
// later-side position, the intra pair before the cross pairs of the same
// install, then ascending earlier-side position (exactly how Run lays out
// PerInstall); entries with equal positions keep their insertion order.
// Only the small index records are sorted, never the findings.
type deltaBuf struct {
	fs   []Finding
	keys []deltaKey
}

type deltaKey struct{ aPos, bPos, i int32 }

// add appends the threats of the pair (x, y), x earlier-installed.
func (d *deltaBuf) add(x, y *storeApp, ts []detect.Threat) {
	for _, t := range ts {
		d.keys = append(d.keys, deltaKey{int32(x.pos), int32(y.pos), int32(len(d.fs))})
		d.fs = append(d.fs, Finding{x.name, y.name, t})
	}
}

// sorted returns the collected findings in serial install order, in a
// slice of their own.
func (d *deltaBuf) sorted() []Finding {
	if len(d.fs) == 0 {
		return nil
	}
	slices.SortStableFunc(d.keys, func(p, q deltaKey) int {
		if p.bPos != q.bPos {
			return cmp.Compare(p.bPos, q.bPos)
		}
		if pi, qi := p.aPos == p.bPos, q.aPos == q.bPos; pi != qi {
			if pi {
				return -1
			}
			return 1
		}
		return cmp.Compare(p.aPos, q.aPos)
	})
	out := make([]Finding, len(d.keys))
	for j, k := range d.keys {
		out[j] = d.fs[k.i]
	}
	return out
}

func (d *deltaBuf) reset() {
	clear(d.fs)
	d.fs = d.fs[:0]
	d.keys = d.keys[:0]
}

// threatIdentity is the delta identity of one threat: kind, the two
// qualified rule IDs, the shared property and the note. The witness is
// excluded on purpose — a re-solved pair may pick a different concrete
// witness for the same interference without churning the feed.
func threatIdentity(t *detect.Threat) string {
	return string(t.Kind) + "\x00" + t.R1.QualifiedID() + "\x00" + t.R2.QualifiedID() +
		"\x00" + string(t.Property) + "\x00" + t.Note
}

// diffThreats computes the multiset delta between one pair's old and new
// verdicts, preserving each side's order.
func diffThreats(old, new []detect.Threat) (added, resolved []detect.Threat) {
	if len(old) == 0 {
		return new, nil
	}
	if len(new) == 0 {
		return nil, old
	}
	have := make(map[string]int, len(old))
	for i := range old {
		have[threatIdentity(&old[i])]++
	}
	for i := range new {
		id := threatIdentity(&new[i])
		if have[id] > 0 {
			have[id]--
		} else {
			added = append(added, new[i])
		}
	}
	want := make(map[string]int, len(new))
	for i := range new {
		want[threatIdentity(&new[i])]++
	}
	for i := range old {
		id := threatIdentity(&old[i])
		if want[id] > 0 {
			want[id]--
		} else {
			resolved = append(resolved, old[i])
		}
	}
	return added, resolved
}

// Apply mutates the store by one batch and returns the resulting
// revision. Removes run first, then upserts (the last upsert of a name
// within one batch wins); per-app failures land in Revision.Errors
// without failing the batch. Only pairs whose footprints intersect a
// changed app are re-checked — candidates come from the footprint
// index's posting lists, checked over the worker pool with one fresh
// detector per worker — and pairs that stopped sharing any channel are
// resolved without solving (the footprint prune guarantees they are
// clean).
func (a *Auditor) Apply(batch Batch) (*Revision, error) {
	if len(batch.Upserts) == 0 && len(batch.Removes) == 0 {
		return nil, ErrEmptyBatch
	}
	return a.apply(batch, 0)
}

// apply is Apply's engine. A non-zero replayLSN marks boot-time WAL
// replay: the batch's upserts carry pre-extracted results decoded from
// the op record, the empty-batch check is waived (an acked batch whose
// every op errored still produced a revision, and replay must reproduce
// the revision numbering exactly), events/metrics are not re-published,
// no record is re-appended, and a record at or below the persisted
// watermark is skipped as already reflected in the restored checkpoint.
func (a *Auditor) apply(batch Batch, replayLSN uint64) (*Revision, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if replayLSN > 0 && a.walLSN >= replayLSN {
		return nil, nil // already in the checkpoint
	}
	start := time.Now()
	var sp *obs.Span
	if a.opts.Obs != nil {
		sp = a.opts.Obs.Tracer.Start("audit.apply")
	}

	rev := &Revision{}
	errAt := func(key string, err error) {
		if rev.Errors == nil {
			rev.Errors = map[string]error{}
		}
		rev.Errors[key] = err
	}

	// Phase 1: extract upserts, parallel over the inputs that need it.
	type prepared struct {
		name string
		res  *symexec.Result
		cfg  *detect.Config
	}
	preps := make([]prepared, len(batch.Upserts))
	perr := make([]error, len(batch.Upserts))
	xsp := sp.Child("extract")
	runTasks(len(batch.Upserts), a.workers, func(i int) {
		in := &batch.Upserts[i]
		res := in.Res
		if res == nil {
			var err error
			if a.opts.Extract != nil {
				res, err = a.opts.Extract.Extract(in.Source, in.Name)
			} else {
				res, err = symexec.Extract(in.Source, in.Name)
			}
			if err != nil {
				perr[i] = err
				return
			}
		}
		name := in.Name
		if name == "" {
			name = res.App.Name
		}
		if name == "" {
			perr[i] = fmt.Errorf("audit: upsert %d has no app name", i)
			return
		}
		preps[i] = prepared{name: name, res: res, cfg: in.Config}
	})
	if xsp != nil {
		xsp.SetInt("apps", int64(len(batch.Upserts)))
		xsp.End()
	}
	for i, err := range perr {
		if err == nil {
			continue
		}
		key := batch.Upserts[i].Name
		if key == "" {
			key = fmt.Sprintf("upsert[%d]", i)
		}
		errAt(key, err)
	}
	// The batch describes a desired end state, not a replay: the last
	// upsert of each name wins.
	last := map[string]int{}
	for i := range preps {
		if perr[i] == nil {
			last[preps[i].name] = i
		}
	}

	scr := &a.scr
	defer scr.release()
	// resolve moves a pair's whole verdict into the resolved delta.
	resolve := func(x, y *storeApp) {
		lo, hi := ordered(x, y)
		scr.resolved.add(lo, hi, a.dropVerdict(x, y))
	}

	// The effective ops — removes that hit an installed app, the winning
	// upsert per name — are what the WAL record carries: replaying them
	// reproduces this batch's end state without the failed inputs.
	var effRemoves []string
	var effUpserts []walUpsert

	// Phase 2: removals. Every pair involving a removed app resolves, the
	// slot's postings clear and the slot goes on the freelist for reuse.
	for _, name := range batch.Removes {
		st := a.byName[name]
		if st == nil {
			errAt(name, ErrUnknownApp)
			continue
		}
		effRemoves = append(effRemoves, name)
		peers := st.peers
		st.peers = nil
		for _, p := range peers {
			resolve(st, a.slots[p])
		}
		a.idx.Update(st.slot, nil)
		a.slots[st.slot] = nil
		a.free = append(a.free, st.slot)
		delete(a.byName, name)
		copy(a.order[st.pos:], a.order[st.pos+1:])
		a.order[len(a.order)-1] = nil
		a.order = a.order[:len(a.order)-1]
		for i := st.pos; i < len(a.order); i++ {
			a.order[i].pos = i
		}
	}

	// Phase 3: upserts — build the new InstalledApp, compile it once
	// (single-threaded: the compiled-set attach is an unsynchronized
	// write) and splice its footprint into the index. Updates keep their
	// store position; submits append.
	csp := sp.Child("compile")
	var changed []*storeApp
	for i := range preps {
		if perr[i] != nil || last[preps[i].name] != i {
			continue
		}
		p := &preps[i]
		effUpserts = append(effUpserts, walUpsert{name: p.name, res: p.res, cfg: p.cfg})
		ia := detect.NewInstalledApp(p.res, p.cfg)
		a.compiler.Precompile(ia)
		if st := a.byName[p.name]; st != nil {
			st.app = ia
			a.idx.Update(st.slot, ia.Footprint())
			changed = append(changed, st)
			continue
		}
		st := &storeApp{name: p.name, app: ia}
		if k := len(a.free); k > 0 {
			st.slot = a.free[k-1]
			a.free = a.free[:k-1]
			a.slots[st.slot] = st
			a.idx.Update(st.slot, ia.Footprint())
		} else {
			st.slot = a.idx.Add(ia.Footprint())
			a.slots = append(a.slots, st)
		}
		st.pos = len(a.order)
		a.order = append(a.order, st)
		a.byName[p.name] = st
		changed = append(changed, st)
	}
	if csp != nil {
		csp.SetInt("apps", int64(len(changed)))
		csp.End()
	}

	// Phase 4: candidate pairs. Each changed app contributes its intra
	// pair plus every counterpart sharing a channel (posting-list walk —
	// cost scales with actual overlap, not store size). A pair between two
	// changed apps is generated from both sides; sorting the tasks by key
	// drops the duplicate and lets Phase 6 look pairs up by binary search.
	gsp := sp.Child("candidates")
	addTask := func(x, y *storeApp) {
		lo, hi := ordered(x, y)
		scr.tasks = append(scr.tasks, pairTask{key: keyOf(x, y), x: lo, y: hi})
	}
	for _, st := range changed {
		addTask(st, st)
		scr.cands = a.idx.AppendCandidates(st.app.Footprint(), scr.cands[:0])
		for _, s := range scr.cands {
			if other := a.slots[s]; other != nil && other != st {
				addTask(st, other)
			}
		}
	}
	slices.SortFunc(scr.tasks, func(p, q pairTask) int { return cmp.Compare(p.key, q.key) })
	scr.tasks = slices.CompactFunc(scr.tasks, func(p, q pairTask) bool { return p.key == q.key })
	tasks := scr.tasks
	if gsp != nil {
		gsp.SetInt("tasks", int64(len(tasks)))
		gsp.End()
	}

	// Phase 5: pair detection over the work-stealing pool, one long-lived
	// detector per worker (the shared InstalledApps are immutable after
	// Precompile, so this is the same race-free sharing Run relies on;
	// pair calls clear the detector's per-pair state, so nothing one pair
	// or revision solved reaches the next).
	psp := sp.Child("pairs")
	if a.dets == nil {
		a.dets = make([]*detect.Detector, a.workers)
		for w := range a.dets {
			a.dets[w] = detect.New(a.opts.Detector)
		}
	}
	scr.results = slices.Grow(scr.results, len(tasks))[:len(tasks)]
	results := scr.results
	runTasksWorker(len(tasks), a.workers, func(w, k int) {
		results[k] = a.dets[w].DetectAppPairCandidate(tasks[k].x.app, tasks[k].y.app)
	})
	rev.Stats = a.dets[0].TakeStats()
	for _, d := range a.dets[1:] {
		rev.Stats.Merge(d.TakeStats())
	}
	if psp != nil {
		psp.SetInt("pairs", int64(len(tasks)))
		psp.End()
	}

	// Phase 6: delta. Pairs that had findings involving a changed app but
	// came back as no candidate stopped sharing any channel — the
	// footprint prune proves them clean, so they resolve without solving.
	// Checked pairs diff old against new verdicts by threat identity.
	dsp := sp.Child("delta")
	for _, st := range changed {
		for _, p := range st.peers {
			other := a.slots[p]
			k := keyOf(st, other)
			if _, ok := slices.BinarySearchFunc(tasks, k, func(t pairTask, k pairKey) int { return cmp.Compare(t.key, k) }); !ok {
				scr.stale = append(scr.stale, pairTask{key: k, x: st, y: other})
			}
		}
	}
	for _, t := range scr.stale {
		resolve(t.x, t.y) // a pair of two changed apps is listed twice; the second finds no verdict
	}
	for k := range tasks {
		t := &tasks[k]
		old := a.verdicts[t.key]
		newTs := results[k]
		add, res := diffThreats(old, newTs)
		scr.added.add(t.x, t.y, add)
		scr.resolved.add(t.x, t.y, res)
		if len(newTs) > 0 {
			a.setVerdict(t.x, t.y, newTs)
		} else {
			a.dropVerdict(t.x, t.y)
		}
	}
	rev.Added = scr.added.sorted()
	rev.Resolved = scr.resolved.sorted()
	if dsp != nil {
		dsp.SetInt("added", int64(len(rev.Added)))
		dsp.SetInt("resolved", int64(len(rev.Resolved)))
		dsp.End()
	}

	// Phase 7: version, retain, log, publish. The WAL record is appended
	// after the mutation and before the caller is acknowledged (commit-log
	// semantics, same as the fleet): an append failure returns the batch
	// un-acknowledged, and the log's crash-stop latching refuses every
	// later batch, so recovery never resurrects an un-acked revision.
	// Exactly one record per acked revision — even when every op errored —
	// keeps replayed revision numbering identical to the pre-crash run.
	a.rev++
	rev.Rev = a.rev
	rev.Apps = len(a.order)
	rev.Pairs = len(tasks)
	rev.Duration = time.Since(start)
	a.active += len(rev.Added) - len(rev.Resolved)
	// Trim the history in place: once it is full, every revision shifts
	// the window by one instead of copying it into a fresh slice.
	a.history = append(a.history, rev)
	if n := len(a.history) - a.opts.History; n > 0 {
		copy(a.history, a.history[n:])
		clear(a.history[len(a.history)-n:])
		a.history = a.history[:len(a.history)-n]
	}
	if replayLSN > 0 {
		// Replayed batches were published before the crash; re-emitting
		// their events or re-counting their metrics would double them.
		a.walLSN = replayLSN
	} else {
		if a.wal != nil {
			payload, err := encodeBatchOp(effRemoves, effUpserts)
			if err == nil {
				var wsp *obs.Span
				if sp != nil {
					wsp = sp.Child("wal.append")
				}
				var lsn uint64
				lsn, err = a.wal.Append(wal.OpAuditBatch, payload)
				if wsp != nil {
					wsp.End()
				}
				if err == nil {
					a.walLSN = lsn
				}
			}
			if err != nil {
				if sp != nil {
					sp.End()
				}
				return nil, fmt.Errorf("audit: rev %d: wal append: %w", rev.Rev, err)
			}
		}
		a.publishEvents(rev)
		a.publishMetrics(rev)
	}
	if sp != nil {
		sp.SetInt("rev", int64(rev.Rev))
		sp.SetInt("added", int64(len(rev.Added)))
		sp.SetInt("resolved", int64(len(rev.Resolved)))
		sp.End()
	}
	return rev, nil
}

// Findings returns the store's full active finding set in serial install
// order — byte-identical to what Run over the current store reports
// (pinned by the churn property test).
func (a *Auditor) Findings() []Finding {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.findingsLocked()
}

// Threats flattens Findings to the bare threat list.
func (a *Auditor) Threats() []detect.Threat {
	fs := a.Findings()
	out := make([]detect.Threat, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.Threat)
	}
	return out
}

func (a *Auditor) findingsLocked() []Finding {
	var out []Finding
	var earlier []*storeApp
	for _, st := range a.order {
		for _, t := range a.verdicts[keyOf(st, st)] {
			out = append(out, Finding{st.name, st.name, t})
		}
		earlier = earlier[:0]
		for _, p := range st.peers {
			// Cross pairs are emitted at their later-installed side.
			if other := a.slots[p]; other.pos < st.pos {
				earlier = append(earlier, other)
			}
		}
		slices.SortFunc(earlier, func(x, y *storeApp) int { return cmp.Compare(x.pos, y.pos) })
		for _, other := range earlier {
			for _, t := range a.verdicts[keyOf(other, st)] {
				out = append(out, Finding{other.name, st.name, t})
			}
		}
	}
	return out
}

// FindingsSince answers the findings feed for a client that last saw
// revision since: the concatenated per-revision deltas when the retained
// history still covers (since, current], or a Reset snapshot of the full
// active set when since has aged out.
func (a *Auditor) FindingsSince(since uint64) *Feed {
	a.mu.Lock()
	defer a.mu.Unlock()
	f := &Feed{Rev: a.rev, Since: since}
	if since >= a.rev {
		return f
	}
	if n := len(a.history); n > 0 && a.history[0].Rev <= since+1 {
		for _, r := range a.history {
			if r.Rev <= since {
				continue
			}
			f.Added = append(f.Added, r.Added...)
			f.Resolved = append(f.Resolved, r.Resolved...)
		}
		return f
	}
	f.Reset = true
	f.Added = a.findingsLocked()
	return f
}

// publishEvents ships one revision event plus one event per delta
// finding; Publish never blocks (nil writers no-op).
func (a *Auditor) publishEvents(rev *Revision) {
	w := a.opts.Events
	if w == nil {
		return
	}
	w.Publish(events.Event{
		Type: events.TypeRevision, Rev: rev.Rev, Threats: len(rev.Added),
		DurationMs: float64(rev.Duration.Microseconds()) / 1000.0,
	})
	for _, f := range rev.Added {
		w.Publish(events.Event{
			Type: events.TypeFinding, Rev: rev.Rev, App: f.App1, App2: f.App2,
			Kind: string(f.Threat.Kind), Status: events.StatusAdded,
		})
	}
	for _, f := range rev.Resolved {
		w.Publish(events.Event{
			Type: events.TypeFinding, Rev: rev.Rev, App: f.App1, App2: f.App2,
			Kind: string(f.Threat.Kind), Status: events.StatusResolved,
		})
	}
}

// publishMetrics folds one revision into the homeguard_audit_* catalog.
// Registration is idempotent by name, so every Apply may re-ask.
func (a *Auditor) publishMetrics(rev *Revision) {
	o := a.opts.Obs
	if o == nil {
		return
	}
	r := o.Registry
	r.Counter("homeguard_audit_revisions_total", "Store revisions applied by the incremental auditor.").Inc()
	r.Counter("homeguard_audit_pairs_rechecked_total", "App pairs re-checked across incremental revisions.").Add(uint64(rev.Pairs))
	r.Counter("homeguard_audit_findings_added_total", "Findings added across incremental revisions.").Add(uint64(len(rev.Added)))
	r.Counter("homeguard_audit_findings_resolved_total", "Findings resolved across incremental revisions.").Add(uint64(len(rev.Resolved)))
	r.Counter("homeguard_audit_pairs_checked_total", "Rule pairs checked across audit runs.").Add(uint64(rev.Stats.PairsChecked))
	r.Counter("homeguard_audit_solver_calls_total", "Solver invocations across audit runs.").Add(uint64(rev.Stats.SolverCalls))
	r.Gauge("homeguard_audit_store_apps", "Apps currently in the audited store.").Set(int64(rev.Apps))
	r.Gauge("homeguard_audit_findings_active", "Currently active findings across the audited store.").Set(int64(a.active))
}
