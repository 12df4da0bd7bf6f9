// Package crashcheck is the exhaustive crash-consistency model
// checker: it enumerates a power failure at every persist-relevant
// event a workload emits, layers adversarial fault variants on top of
// the durability domain's baseline policy at each point, recovers the
// image with core.Reopen, and validates the result against a
// durable-linearizability oracle.
//
// The pipeline per (workload, algorithm, domain, seed):
//
//	record  — one clean run with a membus persist tap counts the
//	          persist events (stores, clwbs, sfences, NT stores, WC
//	          drains) the workload emits. Determinism (single thread,
//	          lockstep engine, seed-derived ops) makes the event index
//	          a stable coordinate.
//	crash   — for each event k: re-run to event k, where the tap stops
//	          the machine dead (core.PowerFailure), snapshot the
//	          device, and enumerate fault plans: the baseline policy,
//	          single-line WPQ drops, early evictions (applies), torn
//	          lines at 8-byte granularity, and the all-drop/all-apply
//	          extremes (see faultPlans for the per-domain eligibility).
//	verify  — restore the snapshot, apply the crash with the plan,
//	          core.Reopen, and compare the recovered cells against the
//	          workload's shadow model: every committed op's writes must
//	          be visible, and at most the single in-flight op may
//	          additionally have committed. NoReserve cannot make that
//	          promise (an sfence waits only for WPQ accept, not the
//	          media drain), so it gets a relaxed oracle — recovery must
//	          succeed and every cell must hold some value from the
//	          committed history (no torn garbage) — which is precisely
//	          why the paper deprecates it.
//
// Crash points are independent, so the campaign fans out over the
// runner worker pool and inherits its shard machinery. Failures
// shrink to a minimal replayable repro (see shrink.go).
package crashcheck

import (
	"fmt"
	"time"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/membus"
	"goptm/internal/memdev"
	"goptm/internal/runner"
)

// Options configures one checking campaign.
type Options struct {
	Workload Workload
	Algo     core.Algo
	Domain   durability.Domain
	// Ops is how many workload operations the run executes.
	Ops int
	// MutateDropFence elides one named fence site (mutation self-test;
	// see core.Config.MutateDropFence).
	MutateDropFence string

	// Jobs/Shard/Progress pass through to the runner pool for the
	// exhaustive campaign.
	Jobs     int
	Shard    runner.Shard
	Progress *runner.Progress
}

// Violation is one oracle failure, carrying everything needed to
// reproduce it.
type Violation struct {
	Workload  string             `json:"workload"`
	Algo      string             `json:"algo"`
	Domain    string             `json:"domain"`
	Seed      uint64             `json:"seed"`
	Ops       int                `json:"ops"`
	Event     int                `json:"event"`
	EventKind string             `json:"event_kind"`
	Faults    []memdev.LineFault `json:"faults,omitempty"`
	Mutate    string             `json:"mutate_drop_fence,omitempty"`
	Committed int                `json:"committed"`
	Detail    string             `json:"detail"`
}

// String renders the violation for logs.
func (v *Violation) String() string {
	return fmt.Sprintf("%s/%s/%s seed=%d ops=%d event=%d(%s) faults=%v: %s",
		v.Workload, v.Algo, v.Domain, v.Seed, v.Ops, v.Event, v.EventKind, v.Faults, v.Detail)
}

// PointResult aggregates the outcome of checking one or more crash
// points.
type PointResult struct {
	Points         int         `json:"points"`
	Variants       int         `json:"variants"`
	FaultsInjected int         `json:"faults_injected"`
	Violations     []Violation `json:"violations,omitempty"`
}

func (r *PointResult) merge(o PointResult) {
	r.Points += o.Points
	r.Variants += o.Variants
	r.FaultsInjected += o.FaultsInjected
	r.Violations = append(r.Violations, o.Violations...)
}

// Report is a campaign's outcome.
type Report struct {
	Workload string `json:"workload"`
	Algo     string `json:"algo"`
	Domain   string `json:"domain"`
	Seed     uint64 `json:"seed"`
	Ops      int    `json:"ops"`
	// Events is the total number of persist boundaries the workload
	// emits; Points counts those this shard actually visited.
	Events int `json:"events"`
	PointResult
}

// tmConfig builds the (small, deterministic) machine the checker runs
// workloads on.
func (o *Options) tmConfig() core.Config {
	return core.Config{
		Algo:            o.Algo,
		Medium:          core.MediumNVM,
		Domain:          o.Domain,
		Threads:         1,
		HeapWords:       1 << 12,
		MaxLogEntries:   128,
		OrecSize:        1 << 10,
		Lockstep:        true,
		Backoff:         core.BackoffNone,
		MutateDropFence: o.MutateDropFence,
	}
}

// validate rejects configurations the checker cannot enumerate.
func (o *Options) validate() error {
	if o.Workload == nil || o.Ops <= 0 {
		return fmt.Errorf("crashcheck: need a workload and positive ops")
	}
	if o.Algo == core.AlgoHTM {
		// An HTM commit is hardware-atomic: there is no observable
		// intermediate persist state to cut at (see the htm:pre-publish
		// hook rationale), so enumeration is meaningless.
		return fmt.Errorf("crashcheck: HTM commits are hardware-atomic; check lazy or eager")
	}
	return nil
}

// Record runs the workload once, uninterrupted, and returns the kind
// of every persist event it emits — the crash-point coordinate system.
func (o *Options) Record() ([]membus.PersistEventKind, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	tm, err := core.New(o.tmConfig())
	if err != nil {
		return nil, err
	}
	th := tm.Thread(0)
	o.Workload.Setup(tm, th)
	tm.Bus().Quiesce()
	var events []membus.PersistEventKind
	tm.Bus().SetPersistTap(func(e membus.PersistEvent) { events = append(events, e.Kind) })
	for i := 0; i < o.Ops; i++ {
		o.Workload.Op(tm, th, i)
	}
	tm.Bus().SetPersistTap(nil)
	th.Detach()
	return events, nil
}

// crashState is the machine stopped dead at a crash point.
type crashState struct {
	bus       *membus.Bus
	cfg       core.Config
	committed int // ops whose Atomic returned before the crash
	vt        int64
	kind      membus.PersistEventKind
}

// runToEvent re-runs the workload and stops the machine at persist
// event k by panicking core.PowerFailure out of the tap.
func (o *Options) runToEvent(k int) (*crashState, error) {
	cfg := o.tmConfig()
	tm, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	th := tm.Thread(0)
	o.Workload.Setup(tm, th)
	tm.Bus().Quiesce()

	st := &crashState{bus: tm.Bus(), cfg: cfg}
	n := 0
	tm.Bus().SetPersistTap(func(e membus.PersistEvent) {
		if n == k {
			n++
			st.kind = e.Kind
			panic(core.PowerFailure{Point: fmt.Sprintf("crashcheck:event-%d", k)})
		}
		n++
	})
	crashed := false
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(core.PowerFailure); ok {
				crashed = true
				return
			}
			panic(r)
		}()
		for i := 0; i < o.Ops; i++ {
			o.Workload.Op(tm, th, i)
			st.committed = i + 1
		}
	}()
	tm.Bus().SetPersistTap(nil)
	st.vt = th.Now()
	th.Detach()
	if !crashed {
		return nil, fmt.Errorf("crashcheck: event %d never fired (run emits fewer events)", k)
	}
	return st, nil
}

// tearMasks is the canonical set of 8-byte-granularity tear patterns
// applied to a fault-eligible line: half-line splits, alternating
// words, and single-word extremes. Word-level atomicity means these
// cover the qualitatively distinct tears without enumerating all 2^8
// masks.
var tearMasks = [...]uint8{0x0F, 0xF0, 0x55, 0x01, 0x80}

// faultPlans enumerates the adversarial crash variants for one crash
// instant, given the device's pending (WPQ) and dirty-cache line sets.
// The first plan is always nil — the domain's baseline policy.
//
// Eligibility per domain:
//
//	eADR/PDRAM/PDRAM-Lite — reserve power flushes the caches, so there
//	    is no nondeterministic window: baseline only.
//	ADR — a WPQ entry not yet ordered by an sfence may still be in the
//	    core's store path: it can be dropped, or torn mid-write. A
//	    dirty cache line can have been evicted at any earlier moment:
//	    it can apply (early eviction) or tear. Ordered entries are
//	    guaranteed (that is what the fence bought) and stay untouched.
//	NoReserve — nothing above the media is guaranteed: every pending
//	    entry races the failure (apply, drop, or tear, regardless of
//	    fences — an sfence waits only for WPQ accept), and dirty lines
//	    behave as under ADR.
func faultPlans(dom durability.Domain, pend []memdev.PendingInfo, dirty []uint64) [][]memdev.LineFault {
	plans := [][]memdev.LineFault{nil}
	if dom.CachePersists() {
		return plans
	}
	type eligible struct {
		line  uint64
		kinds []memdev.FaultKind
	}
	var lines []eligible
	for _, p := range pend {
		switch {
		case !dom.WPQPersists():
			lines = append(lines, eligible{p.Line, []memdev.FaultKind{memdev.FaultApply, memdev.FaultDrop, memdev.FaultTear}})
		case !p.Ordered:
			lines = append(lines, eligible{p.Line, []memdev.FaultKind{memdev.FaultDrop, memdev.FaultTear}})
		}
	}
	for _, ln := range dirty {
		lines = append(lines, eligible{ln, []memdev.FaultKind{memdev.FaultApply, memdev.FaultTear}})
	}

	var allDrop, allApply []memdev.LineFault
	for _, e := range lines {
		for _, k := range e.kinds {
			switch k {
			case memdev.FaultTear:
				for _, m := range tearMasks {
					plans = append(plans, []memdev.LineFault{{Line: e.line, Kind: k, Mask: m}})
				}
			default:
				plans = append(plans, []memdev.LineFault{{Line: e.line, Kind: k}})
				if k == memdev.FaultDrop {
					allDrop = append(allDrop, memdev.LineFault{Line: e.line, Kind: k})
				} else {
					allApply = append(allApply, memdev.LineFault{Line: e.line, Kind: k})
				}
			}
		}
	}
	if len(allDrop) > 1 {
		plans = append(plans, allDrop)
	}
	if len(allApply) > 1 {
		plans = append(plans, allApply)
	}
	return plans
}

// verify crashes the stopped machine with the given fault plan,
// recovers it, and runs the oracle. It returns nil when consistent.
func (o *Options) verify(st *crashState, event int, plan []memdev.LineFault) *Violation {
	st.bus.CrashWith(st.vt, plan)
	mkViolation := func(detail string) *Violation {
		return &Violation{
			Workload: o.Workload.Name(), Algo: o.Algo.String(), Domain: o.Domain.String(),
			Seed: o.Workload.Seed(), Ops: o.Ops, Event: event, EventKind: st.kind.String(),
			Faults: plan, Mutate: o.MutateDropFence, Committed: st.committed, Detail: detail,
		}
	}
	tm2, _, err := core.Reopen(st.bus, st.cfg)
	if err != nil {
		return mkViolation("recovery failed: " + err.Error())
	}
	th2 := tm2.Thread(0)
	got := o.Workload.ReadCells(tm2, th2)
	th2.Detach()

	if o.Domain == durability.NoReserve {
		// Relaxed oracle: committed durability is unattainable (the
		// fence does not wait for the media drain), so only demand
		// recoverability and the absence of invented values.
		limit := st.committed + 1
		if limit > o.Ops {
			limit = o.Ops
		}
		for c, v := range got {
			found := false
			for m := 0; m <= limit && !found; m++ {
				found = o.Workload.Model(m)[c] == v
			}
			if !found {
				return mkViolation(fmt.Sprintf("cell %d holds %d, a value it never held in the committed history", c, v))
			}
		}
		return nil
	}

	// Strict durable linearizability: the recovered state is the model
	// after exactly the committed ops, or after one more (the op that
	// was in flight at the crash may have reached its durable commit
	// point without returning).
	if cellsEqual(got, o.Workload.Model(st.committed)) {
		return nil
	}
	if st.committed < o.Ops && cellsEqual(got, o.Workload.Model(st.committed+1)) {
		return nil
	}
	return mkViolation(fmt.Sprintf("recovered cells %v match neither Model(%d)=%v nor Model(%d)",
		got, st.committed, o.Workload.Model(st.committed), st.committed+1))
}

func cellsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckPoint exhaustively checks every fault variant of a crash at
// persist event k. The device snapshot lets each variant restart from
// the identical pre-crash instant without re-running the simulation.
func (o *Options) CheckPoint(k int) (PointResult, error) {
	st, err := o.runToEvent(k)
	if err != nil {
		return PointResult{}, err
	}
	dev := st.bus.Device()
	img := dev.Snapshot()
	plans := faultPlans(o.Domain, dev.PendingSnapshot(), dev.DirtyLineList())

	res := PointResult{Points: 1}
	for _, plan := range plans {
		dev.Restore(img)
		res.Variants++
		res.FaultsInjected += len(plan)
		if v := o.verify(st, k, plan); v != nil {
			res.Violations = append(res.Violations, *v)
		}
	}
	return res, nil
}

// CheckVariant re-runs to event k and applies exactly one fault plan —
// the replay and shrink primitive.
func (o *Options) CheckVariant(k int, plan []memdev.LineFault) (*Violation, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	st, err := o.runToEvent(k)
	if err != nil {
		return nil, err
	}
	return o.verify(st, k, plan), nil
}

// Run executes the exhaustive campaign: every crash point × every
// fault variant, fanned out over the runner pool in chunks of points.
func Run(o Options) (*Report, error) {
	events, err := o.Record()
	if err != nil {
		return nil, err
	}
	n := len(events)
	rep := &Report{
		Workload: o.Workload.Name(), Algo: o.Algo.String(), Domain: o.Domain.String(),
		Seed: o.Workload.Seed(), Ops: o.Ops, Events: n,
	}

	// Chunks are the unit of scheduling and sharding; small
	// enough that even a short campaign splits across CI shards.
	const chunk = 8
	var jobs []runner.Job[PointResult]
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		jobs = append(jobs, runner.Job[PointResult]{
			Label:  fmt.Sprintf("%s/%s/%s points %d..%d", rep.Workload, rep.Algo, rep.Domain, lo, hi-1),
			CostNS: int64(hi-lo) * 1e6,
			Run: func() (PointResult, error) {
				var acc PointResult
				for k := lo; k < hi; k++ {
					r, err := o.CheckPoint(k)
					if err != nil {
						return acc, err
					}
					acc.merge(r)
				}
				return acc, nil
			},
			Detail: func(r PointResult) string {
				return fmt.Sprintf("%d variants, %d violations", r.Variants, len(r.Violations))
			},
		})
	}
	outs, err := runner.Run(runner.Options{Jobs: o.Jobs, Shard: o.Shard, Progress: o.Progress}, jobs)
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		if out.Source == runner.Skipped {
			continue
		}
		rep.merge(out.Value)
	}
	return rep, nil
}

// Fuzz samples random crash points (full variant sweep at each) until
// the wall-clock budget expires. fuzzSeed makes the point sequence
// reproducible; the per-point work is identical to the exhaustive
// campaign, so any violation it finds shrinks and replays the same
// way.
func Fuzz(o Options, budget time.Duration, fuzzSeed uint64) (*Report, error) {
	events, err := o.Record()
	if err != nil {
		return nil, err
	}
	n := len(events)
	rep := &Report{
		Workload: o.Workload.Name(), Algo: o.Algo.String(), Domain: o.Domain.String(),
		Seed: o.Workload.Seed(), Ops: o.Ops, Events: n,
	}
	if n == 0 {
		return rep, nil
	}
	deadline := time.Now().Add(budget)
	for round := 0; ; round++ {
		if round > 0 && !time.Now().Before(deadline) {
			break
		}
		k := int(opRand(fuzzSeed, round) % uint64(n))
		r, err := o.CheckPoint(k)
		if err != nil {
			return rep, err
		}
		rep.merge(r)
	}
	return rep, nil
}
