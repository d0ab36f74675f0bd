package core

import (
	"setupsched/sched"
)

// NonpEval is the outcome of the non-preemptive 3/2-dual test (Theorem 9).
//
// With big jobs J+ = {t_j > T/2} and K = union over cheap classes of
// {j in C_i cap J- : s_i + t_j > T/2}, every class needs at least
//
//	m_i = ceil(P(C_i)/(T-s_i))                       (expensive)
//	m_i = |C_i cap J+| + ceil(P(C_i cap K)/(T-s_i))  (cheap)
//
// machines (Lemma 12), and classes with leftover work
// x_i = P(C_i) - m_i (T - s_i) > 0 need one extra setup (Note 7).  The
// test rejects T, certifying T < OPT, when m < sum m_i or
// m*T < L_nonp = P(J) + sum_i m_i s_i + sum_{x_i > 0} s_i.
type NonpEval struct {
	T      int64 // the dual works on integral T (OPT is integral)
	OK     bool
	Reason string

	Exp    []int
	Mi     []int64 // per class
	XiPos  []bool  // per class: x_i > 0
	MPrime int64
	L      int64
}

// EvalNonp runs the non-preemptive dual test in O(c log(max_i |C_i|)),
// reading the Prep's SoA layout: with class i's jobs sorted ascending,
// jobs with 2t > T are exactly those t >= T/2+1 (both parities of T) and
// the K set is the band [T/2+1-s_i, T/2+1), so the big-job count and the
// K work are two binary searches plus one prefix-sum difference instead
// of a walk over C_i.  Non-integral T is floored first, which is sound
// and lossless because OPT is integral.  Outcomes are bit-identical to
// EvalNonpRef, the original O(n) walk.
func (p *Prep) EvalNonp(TR sched.Rat) *NonpEval {
	T := TR.Floor()
	ev := &NonpEval{T: T}
	if T < p.SPT {
		ev.Reason = "T < max_i(s_i + t_max) <= OPT"
		return ev
	}
	ev.Mi = make([]int64, p.C)
	ev.XiPos = make([]bool, p.C)
	p.evalNonpCore(ev)
	return ev
}

// NonpEvalScratch holds the per-probe arrays of the non-preemptive dual
// test so repeated probes in one bracket are allocation-free (the eval
// mirror of NonpScratch).  Zero value is ready; not safe for concurrent
// use.
type NonpEvalScratch struct {
	mi    []int64
	xiPos []bool
	exp   []int
	ev    NonpEval
}

func (sc *NonpEvalScratch) ensure(c int) {
	if cap(sc.mi) < c {
		sc.mi = make([]int64, c)
		sc.xiPos = make([]bool, c)
		sc.exp = make([]int, 0, c)
	}
}

// EvalNonpScratch is EvalNonp writing into sc's reusable buffers.  The
// returned eval and its slices are owned by sc: they are valid only until
// the next call with the same scratch, and only one goroutine may use a
// scratch at a time.
func (p *Prep) EvalNonpScratch(TR sched.Rat, sc *NonpEvalScratch) *NonpEval {
	T := TR.Floor()
	ev := &sc.ev
	*ev = NonpEval{T: T}
	if T < p.SPT {
		ev.Reason = "T < max_i(s_i + t_max) <= OPT"
		return ev
	}
	sc.ensure(p.C)
	ev.Mi = sc.mi[:p.C]
	ev.XiPos = sc.xiPos[:p.C]
	ev.Exp = sc.exp[:0]
	p.evalNonpCore(ev)
	sc.exp = ev.Exp[:0]
	return ev
}

// evalNonpCore runs both passes of the dual test on ev, which must carry
// T >= SPT, Mi and XiPos of length C with arbitrary contents (they are
// fully overwritten), and an empty Exp.
func (p *Prep) evalNonpCore(ev *NonpEval) {
	T := ev.T
	c := p.C
	bigThr := T/2 + 1 // 2t > T  <=>  t >= floor(T/2)+1, either parity
	// Pass 1: machine demands.
	for i := 0; i < c; i++ {
		s := p.Setups[i]
		ev.XiPos[i] = false
		switch {
		case 2*s > T:
			ev.Exp = append(ev.Exp, i)
			ev.Mi[i] = ceilDiv64(p.P[i], T-s) // T-s >= t_max^(i) >= 1
		case 2*(s+p.TMaxC[i]) <= T:
			// Even the longest job clears neither threshold: the class
			// demands no machines at T.  Every class takes this O(1)
			// test, and only the a classes with 2s <= T < 2(s+t_max) pay
			// the binary searches, so a probe costs O(c + a log).
			ev.Mi[i] = 0
		default:
			jobs := p.Sorted[i]
			bigIdx := lowerBound64(jobs, bigThr)
			// K = jobs with 2(s+t) > T but 2t <= T, i.e. t in
			// [bigThr-s, bigThr); s >= 0 keeps the band below bigIdx.
			kIdx := lowerBound64(jobs[:bigIdx], bigThr-s)
			kWork := p.Pref[i][bigIdx] - p.Pref[i][kIdx]
			ev.Mi[i] = int64(len(jobs)-bigIdx) + ceilDiv64(kWork, T-s)
		}
		ev.MPrime += ev.Mi[i]
		if ev.MPrime > p.M {
			ev.Reason = "m < m' (classes need too many machines)"
			// Scratch reuse: the walk never reached [i+1:c), so those
			// entries must read as untouched.
			clear(ev.Mi[i+1:])
			clear(ev.XiPos[i+1:])
			return
		}
	}
	// Pass 2: L_nonp.  sum m_i s_i <= m*s_max fits in int64 by the
	// instance magnitude limits.
	ev.L = p.PJ
	for i := 0; i < c; i++ {
		s := p.Setups[i]
		ev.L += ev.Mi[i] * s
		// x_i > 0  <=>  P_i > m_i (T - s_i)
		if p.P[i] > ev.Mi[i]*(T-s) {
			ev.XiPos[i] = true
			ev.L += s
		}
	}
	if p.M*T < ev.L {
		ev.Reason = "m*T < L_nonp (load exceeds capacity)"
		return
	}
	ev.OK = true
}

// EvalNonpRef is the original O(n) dual test, classifying every job by a
// direct walk over the class slices.  It is retained as the differential
// oracle for the SoA eval (see internal/diff and the layout fuzz target);
// EvalNonp must agree with it bit for bit on every field.
func (p *Prep) EvalNonpRef(TR sched.Rat) *NonpEval {
	T := TR.Floor()
	ev := &NonpEval{T: T}
	if T < p.SPT {
		ev.Reason = "T < max_i(s_i + t_max) <= OPT"
		return ev
	}
	c := p.C
	ev.Mi = make([]int64, c)
	ev.XiPos = make([]bool, c)
	// Pass 1: machine demands.
	for i := 0; i < c; i++ {
		cls := &p.In.Classes[i]
		free := T - cls.Setup // >= t_max^(i) >= 1
		if 2*cls.Setup > T {
			ev.Exp = append(ev.Exp, i)
			ev.Mi[i] = ceilDiv64(p.P[i], free)
		} else {
			var big int64
			var kWork int64
			for _, t := range cls.Jobs {
				switch {
				case 2*t > T:
					big++
				case 2*(cls.Setup+t) > T:
					kWork += t
				}
			}
			ev.Mi[i] = big + ceilDiv64(kWork, free)
		}
		ev.MPrime += ev.Mi[i]
		if ev.MPrime > p.M {
			ev.Reason = "m < m' (classes need too many machines)"
			return ev
		}
	}
	// Pass 2: L_nonp.  sum m_i s_i <= m*s_max fits in int64 by the
	// instance magnitude limits.
	ev.L = p.PJ
	for i := 0; i < c; i++ {
		cls := &p.In.Classes[i]
		ev.L += ev.Mi[i] * cls.Setup
		// x_i > 0  <=>  P_i > m_i (T - s_i)
		if p.P[i] > ev.Mi[i]*(T-cls.Setup) {
			ev.XiPos[i] = true
			ev.L += cls.Setup
		}
	}
	if p.M*T < ev.L {
		ev.Reason = "m*T < L_nonp (load exceeds capacity)"
		return ev
	}
	ev.OK = true
	return ev
}

func ceilDiv64(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// ---------------------------------------------------------------------------
// Construction (Algorithm 6).
//
// Step 1 schedules the jobs that pairwise exclude each other (expensive
// classes, big jobs, the set K) on their obligatory machines, wrapping
// preemptively.  Step 2 tops the same machines up with the class's
// remaining jobs without new setups.  Step 3 fills all machines to the
// border T with the residual sequence Q, keeping border items whole.
// Step 4 makes the schedule non-preemptive (each split job is restored at
// a machine-last piece) and moves every border item below the first
// step-3 item of the next machine, adding a setup for moved jobs; this
// move also repairs the setups of batches that continue across machines.

type nonpItem struct {
	isSetup bool
	class   int
	job     int
	length  int64
	parent  int // index into nonpBuild.parents, or -1
	deleted bool
}

type nonpParent struct {
	class, job int
	total      int64
	pieces     []nonpLoc
}

type nonpLoc struct{ mach, item int }

type nonpMachine struct {
	items      []nonpItem
	load       int64
	step3Start int
	crossing   int // index of the border-reaching step-3 item, or -1
}

// nonpClassState tracks one class's machines and leftover jobs between
// the construction steps.
type nonpClassState struct {
	candidates []int // machines that may take step-2/3 load of the class
	restJobs   []int
	restLens   []int64
	restFull   []int64
}

// nonpBuild is the builder's working state.  Machines live in one value
// slice and are addressed by index only (taking a *nonpMachine across a
// newMachine call would dangle when the slice grows); their initial item
// lists are carved out of a shared arena.  Everything here is reusable
// between builds — see NonpScratch — and nothing the emitted Schedule
// references aliases it.
type nonpBuild struct {
	p *Prep
	T int64

	machines  []nonpMachine
	itemArena []nonpItem
	itemOff   int
	parents   []nonpParent
	parentIdx map[int64]int

	states    []nonpClassState
	wrapJobsA []int
	wrapLensA []int64
	restJobsA []int
	restLensA []int64

	order   []int
	live    []nonpItem
	insBuf  []nonpItem
	tailBuf []nonpItem
}

// machItemCap is each machine's arena-backed initial item capacity (a
// setup plus a handful of jobs); machines that outgrow it migrate to a
// private backing array on the next append.
const machItemCap = 8

// reset prepares the builder for one construction, retaining all backing
// arrays from previous uses.
func (b *nonpBuild) reset(p *Prep, T int64) {
	b.p, b.T = p, T
	b.machines = b.machines[:0]
	b.itemOff = 0
	b.parents = b.parents[:0]
	if b.parentIdx == nil {
		b.parentIdx = map[int64]int{}
	} else {
		clear(b.parentIdx)
	}
	if cap(b.states) >= p.C {
		b.states = b.states[:p.C]
	} else {
		b.states = make([]nonpClassState, p.C)
	}
	if cap(b.wrapJobsA) < p.NJob {
		b.wrapJobsA = make([]int, 0, p.NJob)
		b.wrapLensA = make([]int64, 0, p.NJob)
		b.restJobsA = make([]int, 0, p.NJob)
		b.restLensA = make([]int64, 0, p.NJob)
	} else {
		b.wrapJobsA = b.wrapJobsA[:0]
		b.wrapLensA = b.wrapLensA[:0]
		b.restJobsA = b.restJobsA[:0]
		b.restLensA = b.restLensA[:0]
	}
	b.order = b.order[:0]
}

// itemSeg returns a fresh exclusive full-slice segment of the item arena.
// Old segments keep whatever backing they were carved from, so replacing
// an exhausted arena never invalidates them.
func (b *nonpBuild) itemSeg() []nonpItem {
	if b.itemOff+machItemCap > len(b.itemArena) {
		n := 2 * len(b.itemArena)
		if n < 2048 {
			n = 2048
		}
		b.itemArena = make([]nonpItem, n)
		b.itemOff = 0
	}
	seg := b.itemArena[b.itemOff : b.itemOff : b.itemOff+machItemCap]
	b.itemOff += machItemCap
	return seg
}

func (b *nonpBuild) newMachine() int {
	b.machines = append(b.machines, nonpMachine{crossing: -1, step3Start: -1, items: b.itemSeg()})
	return len(b.machines) - 1
}

func (b *nonpBuild) put(mi int, it nonpItem) {
	m := &b.machines[mi]
	if it.parent >= 0 {
		b.parents[it.parent].pieces = append(b.parents[it.parent].pieces,
			nonpLoc{mach: mi, item: len(m.items)})
	}
	m.items = append(m.items, it)
	m.load += it.length
}

func parentKey(class, job int) int64 { return int64(class)<<32 | int64(job) }

// ensureParent registers (or finds) the parent record of a job being split.
func (b *nonpBuild) ensureParent(class, job int, total int64) int {
	key := parentKey(class, job)
	if pi, ok := b.parentIdx[key]; ok {
		return pi
	}
	b.parents = append(b.parents, nonpParent{class: class, job: job, total: total})
	pi := len(b.parents) - 1
	b.parentIdx[key] = pi
	return pi
}

// jobCursor walks a job list, splitting jobs at machine capacity borders.
type jobCursor struct {
	b     *nonpBuild
	class int
	jobs  []int
	lens  []int64
	full  []int64 // original full lengths (for parent registration)
	pos   int
	left  int64
}

func newJobCursor(b *nonpBuild, class int, jobs []int, lens, full []int64) *jobCursor {
	jc := &jobCursor{b: b, class: class, jobs: jobs, lens: lens, full: full}
	if len(jobs) > 0 {
		jc.left = lens[0]
	}
	return jc
}

func (jc *jobCursor) done() bool { return jc.pos >= len(jc.jobs) }

// fill places up to cap units onto machine mi, splitting the border job.
func (jc *jobCursor) fill(mi int, cap int64) {
	for cap > 0 && !jc.done() {
		take := jc.left
		parent := -1
		split := take > cap
		if split {
			take = cap
		}
		if split || jc.left != jc.full[jc.pos] {
			parent = jc.b.ensureParent(jc.class, jc.jobs[jc.pos], jc.full[jc.pos])
		}
		jc.b.put(mi, nonpItem{class: jc.class, job: jc.jobs[jc.pos], length: take, parent: parent})
		cap -= take
		jc.left -= take
		if jc.left == 0 {
			jc.pos++
			if !jc.done() {
				jc.left = jc.lens[jc.pos]
			}
		}
	}
}

// remainder returns the unplaced jobs; the first may be a partial piece.
// The returned slices alias the cursor's inputs where possible (nothing
// downstream mutates them); only a genuinely split first job forces a
// copy of the length column.
func (jc *jobCursor) remainder() ([]int, []int64, []int64) {
	if jc.done() {
		return nil, nil, nil
	}
	jobs := jc.jobs[jc.pos:]
	full := jc.full[jc.pos:]
	lens := jc.lens[jc.pos:]
	if jc.left != lens[0] {
		lens = append([]int64(nil), lens...)
		lens[0] = jc.left
	}
	return jobs, lens, full
}

// NonpScratch carries the non-preemptive builder's reusable working
// memory across solves.  Construction is allocation-bound; a serialized
// caller that rebuilds after every change (stream.Session) passes one
// scratch via Ctl.Scratch so steady-state re-solves stop paying the
// builder's allocations.  The emitted Schedule never aliases scratch
// memory, so results stay valid after the scratch is reused.  A scratch
// must not be used by two builds concurrently.
type NonpScratch struct {
	b nonpBuild
}

// BuildNonp constructs a feasible non-preemptive schedule with makespan at
// most 3/2*T from an accepting evaluation (Theorem 9(ii), Algorithm 6).
func (p *Prep) BuildNonp(ev *NonpEval) (*sched.Schedule, error) {
	return p.BuildNonpScratch(ev, nil)
}

// BuildNonpScratch is BuildNonp drawing its working memory from sc; a nil
// sc allocates fresh memory (identical output either way).
func (p *Prep) BuildNonpScratch(ev *NonpEval, sc *NonpScratch) (*sched.Schedule, error) {
	if !ev.OK {
		return nil, errInternal("BuildNonp on rejected evaluation (%s)", ev.Reason)
	}
	T := ev.T
	if sc == nil {
		sc = &NonpScratch{}
	}
	b := &sc.b
	b.reset(p, T)

	// Step 1.  The per-class wrap/rest partitions draw from four shared
	// arenas (every job lands in at most one partition) instead of
	// thousands of small growing slices.  The sub-slices are read-only
	// downstream — jobCursor.fill never mutates its inputs and remainder
	// copies the one column it edits.
	for i := range p.In.Classes {
		cls := &p.In.Classes[i]
		st := &b.states[i]
		st.candidates = st.candidates[:0]
		expensive := 2*cls.Setup > T
		ws, rs := len(b.wrapJobsA), len(b.restJobsA)
		for j, t := range cls.Jobs {
			switch {
			case expensive || 2*(cls.Setup+t) > T && 2*t <= T:
				b.wrapJobsA = append(b.wrapJobsA, j)
				b.wrapLensA = append(b.wrapLensA, t)
			case 2*t > T: // big job: own machine
				mi := b.newMachine()
				if cls.Setup > 0 {
					b.put(mi, nonpItem{isSetup: true, class: i, job: -1, length: cls.Setup, parent: -1})
				}
				b.put(mi, nonpItem{class: i, job: j, length: t, parent: -1})
				st.candidates = append(st.candidates, mi)
			default:
				b.restJobsA = append(b.restJobsA, j)
				b.restLensA = append(b.restLensA, t)
			}
		}
		wrapJobs := b.wrapJobsA[ws:len(b.wrapJobsA):len(b.wrapJobsA)]
		wrapLens := b.wrapLensA[ws:len(b.wrapLensA):len(b.wrapLensA)]
		st.restJobs = b.restJobsA[rs:len(b.restJobsA):len(b.restJobsA)]
		st.restLens = b.restLensA[rs:len(b.restLensA):len(b.restLensA)]
		// The full-length column equals the (unmutated) length column at
		// creation; remainder splits them when a border job is cut.
		st.restFull = st.restLens
		if len(wrapJobs) > 0 {
			jc := newJobCursor(b, i, wrapJobs, wrapLens, wrapLens)
			last := -1
			for !jc.done() {
				mi := b.newMachine()
				last = mi
				if cls.Setup > 0 {
					b.put(mi, nonpItem{isSetup: true, class: i, job: -1, length: cls.Setup, parent: -1})
				}
				jc.fill(mi, T-cls.Setup)
			}
			if !expensive && last >= 0 {
				st.candidates = append(st.candidates, last)
			}
		}
	}

	// Step 2: top up candidate machines with the class's remaining jobs.
	for i := range p.In.Classes {
		st := &b.states[i]
		if len(st.restJobs) == 0 {
			continue
		}
		jc := newJobCursor(b, i, st.restJobs, st.restLens, st.restFull)
		for _, mi := range st.candidates {
			if jc.done() {
				break
			}
			if load := b.machines[mi].load; load < T {
				jc.fill(mi, T-load)
			}
		}
		st.restJobs, st.restLens, st.restFull = jc.remainder()
	}

	// Step 3: greedy fill with the residual sequence Q.  A machine closes
	// when its load reaches the border T; the border item stays for now
	// and is relocated in step 4b, which also restores missing setups of
	// batches continuing across machines.
	cur, next := -1, 0
	advance := func() error {
		for {
			if next < len(b.machines) {
				if b.machines[next].load >= T {
					next++
					continue
				}
				cur = next
				next++
			} else {
				if int64(len(b.machines)) >= p.M {
					return errInternal("non-preemptive step 3 ran out of machines")
				}
				cur = b.newMachine()
				next = len(b.machines)
			}
			m := &b.machines[cur]
			m.step3Start = len(m.items)
			b.order = append(b.order, cur)
			return nil
		}
	}
	place := func(it nonpItem) error {
		for cur < 0 || b.machines[cur].load >= T {
			if cur >= 0 && b.machines[cur].load >= T {
				cur = -1
			}
			if cur < 0 {
				if err := advance(); err != nil {
					return err
				}
			}
		}
		mi := cur
		idx := len(b.machines[mi].items)
		b.put(mi, it)
		if m := &b.machines[mi]; m.load >= T {
			m.crossing = idx
			cur = -1
		}
		return nil
	}
	for i := range p.In.Classes {
		st := &b.states[i]
		if len(st.restJobs) == 0 {
			continue
		}
		cls := &p.In.Classes[i]
		if cls.Setup > 0 {
			if err := place(nonpItem{isSetup: true, class: i, job: -1, length: cls.Setup, parent: -1}); err != nil {
				return nil, err
			}
		}
		for k, j := range st.restJobs {
			parent := -1
			if st.restLens[k] != st.restFull[k] {
				parent = b.ensureParent(i, j, st.restFull[k])
			}
			if err := place(nonpItem{class: i, job: j, length: st.restLens[k], parent: parent}); err != nil {
				return nil, err
			}
		}
	}

	// Step 4a: restore non-preemption.  Prefer hosting the whole job at a
	// piece that is a border (crossing) item, so that step 4b still moves
	// it (and its fresh setup) below the continuation.
	for pi := range b.parents {
		par := &b.parents[pi]
		if len(par.pieces) == 0 {
			continue
		}
		if len(par.pieces) == 1 {
			loc := par.pieces[0]
			it := &b.machines[loc.mach].items[loc.item]
			if it.length != par.total {
				return nil, errInternal("sole piece of job (%d,%d) has length %d of %d",
					par.class, par.job, it.length, par.total)
			}
			it.parent = -1
			continue
		}
		host := -1
		for k, loc := range par.pieces {
			if b.machines[loc.mach].crossing == loc.item {
				host = k
				break
			}
		}
		if host < 0 {
			for k, loc := range par.pieces {
				if loc.item == len(b.machines[loc.mach].items)-1 {
					host = k
					break
				}
			}
		}
		if host < 0 {
			return nil, errInternal("no machine-last piece for split job (%d,%d)", par.class, par.job)
		}
		for k, loc := range par.pieces {
			m := &b.machines[loc.mach]
			it := &m.items[loc.item]
			if k == host {
				m.load += par.total - it.length
				it.length = par.total
				it.parent = -1
			} else {
				it.deleted = true
				m.load -= it.length
			}
		}
	}

	// Step 4b: move surviving border items, processing machines in reverse
	// fill order so insertion indices stay valid.  The insertion scratch
	// buffers are shared across iterations.
	for oi := len(b.order) - 1; oi >= 0; oi-- {
		m := &b.machines[b.order[oi]]
		if m.crossing < 0 {
			continue
		}
		it := m.items[m.crossing]
		if it.deleted {
			continue
		}
		if oi+1 >= len(b.order) {
			// The border item ends the whole sequence Q, so no
			// continuation setup needs repair.  But if this machine also
			// receives the previous machine's move, keeping the item
			// could push it past 3/2 T (an edge case the paper's step 4
			// glosses over): relocate the item to the top of the first
			// step-3 machine, which never receives a move and ends below
			// T once its own border item departs.
			if len(b.order) < 2 {
				continue // sole machine: load < T plus one item <= 3/2 T
			}
			m.items[m.crossing].deleted = true
			m.load -= it.length
			if it.isSetup {
				continue // a trailing setup enables nothing; drop it
			}
			first := &b.machines[b.order[0]]
			if s := p.In.Classes[it.class].Setup; s > 0 {
				first.items = append(first.items, nonpItem{isSetup: true, class: it.class, job: -1, length: s, parent: -1})
				first.load += s
			}
			it.deleted = false
			first.items = append(first.items, it)
			first.load += it.length
			continue
		}
		m.items[m.crossing].deleted = true
		m.load -= it.length
		recv := &b.machines[b.order[oi+1]]
		b.insBuf = b.insBuf[:0]
		if !it.isSetup {
			if s := p.In.Classes[it.class].Setup; s > 0 {
				b.insBuf = append(b.insBuf, nonpItem{isSetup: true, class: it.class, job: -1, length: s, parent: -1})
			}
		}
		b.insBuf = append(b.insBuf, it)
		b.tailBuf = append(b.tailBuf[:0], recv.items[recv.step3Start:]...)
		recv.items = append(recv.items[:recv.step3Start], b.insBuf...)
		recv.items = append(recv.items, b.tailBuf...)
		for _, x := range b.insBuf {
			recv.load += x.length
		}
	}

	// Emit.  Schedule construction is allocation-bound and runs on every
	// solve — warm session re-solves included, where it dominates once
	// the search itself is down to a few probes — so all machines' slots
	// share one arena sized up front (AddMachine aliases, never copies)
	// and the per-machine scratch is reused.  All times are integral
	// here, so the running top stays in int64.  The arena is the one
	// allocation that escapes into the result; it must never come from
	// the reusable scratch.
	out := &sched.Schedule{Variant: sched.NonPreemptive, T: sched.R(T)}
	total := 0
	for mi := range b.machines {
		total += len(b.machines[mi].items)
	}
	arena := make([]sched.Slot, 0, total)
	out.Runs = make([]sched.MachineRun, 0, len(b.machines))
	for mi := range b.machines {
		m := &b.machines[mi]
		b.live = b.live[:0]
		for _, it := range m.items {
			if !it.deleted {
				b.live = append(b.live, it)
			}
		}
		live := dropUselessNonpSetups(b.live)
		start := len(arena)
		var top int64
		for _, it := range live {
			if it.length <= 0 {
				if it.length < 0 {
					return nil, errInternal("negative slot length %d", it.length)
				}
				continue
			}
			kind, job := sched.SlotJob, it.job
			if it.isSetup {
				kind, job = sched.SlotSetup, -1
			}
			arena = append(arena, sched.Slot{
				Kind: kind, Class: it.class, Job: job,
				Start: sched.R(top), End: sched.R(top + it.length),
			})
			top += it.length
		}
		out.AddMachine(arena[start:len(arena):len(arena)])
	}
	return out, nil
}

// dropUselessNonpSetups removes setups not directly followed by a job of
// their class.
func dropUselessNonpSetups(items []nonpItem) []nonpItem {
	keep := items[:0]
	for k := 0; k < len(items); k++ {
		it := items[k]
		if it.isSetup && (k+1 >= len(items) || items[k+1].isSetup || items[k+1].class != it.class) {
			continue
		}
		keep = append(keep, it)
	}
	return keep
}
