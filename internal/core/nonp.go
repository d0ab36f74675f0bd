package core

import (
	"slices"

	"setupsched/internal/wrap"
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
//
// Every phase appends to one machine at a time, so a machine's items are
// at most five contiguous ranges of one shared item array, one range per
// phase that can add to the machine (see the seg* constants).  Moving a
// border item below the next machine's step-3 items then fills that
// machine's segMoved range instead of shifting its items, and every item
// keeps its index for the whole build.

// nonpItem is a setup (job -1) or a job piece on a machine.  Step 4
// marks the pieces and border items it replaces deleted.
type nonpItem struct {
	length  int64
	class   int
	job     int
	isSetup bool
	deleted bool
}

// A machine's item ranges in time order.  Each names the phase that
// fills it.
const (
	segStep1     = iota // step 1: obligatory jobs, with the class setup
	segStep2            // step 2: top-up with the class's remaining jobs
	segMoved            // step 4b: the previous machine's border item
	segStep3            // step 3: the residual sequence Q
	segRelocated        // step 4b: the last border item, on the first step-3 machine
	nonpSegs
)

type nonpMachine struct {
	seg      [nonpSegs]wrap.Span // ranges of nonpBuild.items
	load     int64               // length put so far; steps 2 and 3 fill up to T by it
	crossing int                 // items index of the border-reaching step-3 item, or -1
	out      wrap.Span           // its emitted slots, a range of the slot arena
}

// nonpParent is a job split into pieces.  Its pieces form a list through
// nonpBuild.pieces in placement order, from head to tail.
type nonpParent struct {
	class, job int
	total      int64
	head, tail int
}

// nonpPiece is one piece of a split job: its machine, its items index and
// the job's next piece (or -1).
type nonpPiece struct{ mach, item, next int }

// nonpClassState tracks one class between the construction steps.
type nonpClassState struct {
	candidates []int     // machines that may take step-2 load of the class
	rest       jobCursor // the jobs left for steps 2 and 3
}

// nonpBuild is the builder's working state.  Machines live in one value
// slice and are addressed by index only, their items in one array
// addressed by index.  Everything here is reusable between builds — see
// NonpScratch — and nothing the emitted Schedule references aliases it.
type nonpBuild struct {
	items    []nonpItem
	machines []nonpMachine
	phase    int // the seg* range put appends to
	parents  []nonpParent
	pieces   []nonpPiece
	states   []nonpClassState
	order    []int // step-3 machines in fill order

	// candidates holds every class's candidate machines, class after
	// class; a machine is a candidate of at most one class.
	candidates []int
}

// reset prepares the builder for one construction.  It keeps the backing
// arrays of earlier builds and sizes the item and machine lists that are
// too small for p once, so none of them regrows during the build: a
// build uses at most min(m, n) machines, each holding a job of its own,
// and besides the n jobs and c step-3 class setups it adds at most four
// items per machine (on a step-1 machine its setup and a split piece, on
// a step-3 machine a moved border item and its setup).  The split-job
// lists, parents and pieces, are short (empty on many instances) and
// grow on demand.
func (b *nonpBuild) reset(p *Prep) {
	mach := int(min(p.M, int64(p.NJob)))
	b.items = grown(b.items, p.nonpItems())
	b.machines = grown(b.machines, mach)
	b.parents = b.parents[:0]
	b.pieces = b.pieces[:0]
	b.order = grown(b.order, mach)
	b.candidates = grown(b.candidates, mach)
	if cap(b.states) < p.C {
		b.states = make([]nonpClassState, p.C)
	}
	b.states = b.states[:p.C]
}

// nonpItems is the item count a non-preemptive build of p sizes its item
// array for (see reset).
func (p *Prep) nonpItems() int {
	return p.NJob + p.C + 4*int(min(p.M, int64(p.NJob)))
}

// grown returns s emptied, with capacity for at least n elements.  A
// list that must grow gets at least a quarter more than it had, as
// append would, so a scratch that serves a slowly growing instance (a
// session under churn) is not reallocated on every build.
func grown[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, max(n, cap(s)+cap(s)/4))
	}
	return s[:0]
}

func (b *nonpBuild) newMachine() int {
	b.machines = append(b.machines, nonpMachine{crossing: -1})
	return len(b.machines) - 1
}

// put appends it to machine mi's range of the current phase.  A piece
// of a split job names the job's parent record, which lists it; a whole
// item passes parent -1.
func (b *nonpBuild) put(mi int, it nonpItem, parent int) {
	k := len(b.items)
	if parent >= 0 {
		par := &b.parents[parent]
		b.pieces = append(b.pieces, nonpPiece{mach: mi, item: k, next: -1})
		if par.tail >= 0 {
			b.pieces[par.tail].next = len(b.pieces) - 1
		} else {
			par.head = len(b.pieces) - 1
		}
		par.tail = len(b.pieces) - 1
	}
	m := &b.machines[mi]
	sp := &m.seg[b.phase]
	if sp.Len() == 0 {
		sp.Lo = k
	}
	sp.Hi = k + 1
	b.items = append(b.items, it)
	m.load += it.length
}

// lastItem returns the items index of machine mi's last item, or -1.
func (b *nonpBuild) lastItem(mi int) int {
	seg := &b.machines[mi].seg
	for k := nonpSegs - 1; k >= 0; k-- {
		if seg[k].Len() > 0 {
			return seg[k].Hi - 1
		}
	}
	return -1
}

// Step 1 partitions each class's jobs at T into the jobs it wraps (an
// expensive class, or the set K), the big jobs, each on its own machine,
// and the rest, left for steps 2 and 3.
const (
	partWrap = iota
	partBig
	partRest
)

// nonpPart returns the partition of a job of length t in a class with
// setup s at T.
func nonpPart(s, t, T int64) int {
	switch {
	case 2*s > T || 2*(s+t) > T && 2*t <= T:
		return partWrap
	case 2*t > T:
		return partBig
	}
	return partRest
}

// jobCursor walks the jobs of one class and one step-1 partition in job
// order, splitting jobs at machine capacity borders: left is the
// unplaced length of job pos, and parent its record once it has been
// split (else -1).
type jobCursor struct {
	class    int
	jobs     []int64 // the class's job lengths
	setup, T int64
	part     int
	pos      int
	left     int64
	parent   int
}

func newJobCursor(p *Prep, class int, T int64, part int) jobCursor {
	cls := &p.In.Classes[class]
	jc := jobCursor{class: class, jobs: cls.Jobs, setup: cls.Setup, T: T, part: part, pos: -1}
	jc.next()
	return jc
}

func (jc *jobCursor) done() bool { return jc.pos >= len(jc.jobs) }

// next moves to the following job of the partition.
func (jc *jobCursor) next() {
	jc.parent = -1
	for jc.pos++; !jc.done(); jc.pos++ {
		if t := jc.jobs[jc.pos]; nonpPart(jc.setup, t, jc.T) == jc.part {
			jc.left = t
			return
		}
	}
}

// piece returns the item for the next take units of the current job and
// its parent record: -1 for the whole job, else the job's record,
// registered on its first split.
func (jc *jobCursor) piece(b *nonpBuild, take int64) (nonpItem, int) {
	j, full := jc.pos, jc.jobs[jc.pos]
	it := nonpItem{class: jc.class, job: j, length: take}
	if take == full {
		return it, -1
	}
	if jc.parent < 0 {
		b.parents = append(b.parents, nonpParent{class: jc.class, job: j, total: full, head: -1, tail: -1})
		jc.parent = len(b.parents) - 1
	}
	return it, jc.parent
}

// fill places up to cap units onto machine mi, splitting the border job.
func (jc *jobCursor) fill(b *nonpBuild, mi int, cap int64) {
	for cap > 0 && !jc.done() {
		take := min(jc.left, cap)
		it, parent := jc.piece(b, take)
		b.put(mi, it, parent)
		cap -= take
		jc.left -= take
		if jc.left == 0 {
			jc.next()
		}
	}
}

// NonpScratch carries the non-preemptive builder's reusable working
// memory across solves: the item array, the machine, candidate, parent
// and piece lists and the class states, each sized once for the largest
// instance it served.  With a warm BuildScratch, whose slot arena takes
// the emitted slots, a build allocates only its output (the Schedule,
// its slot array and its run array).  The emitted Schedule never aliases
// scratch memory, so results stay valid after the scratch is reused.  A
// scratch must not be used by two builds concurrently.
type NonpScratch struct {
	b nonpBuild
}

// BuildNonp constructs a feasible non-preemptive schedule with makespan at
// most 3/2*T from an accepting evaluation (Theorem 9(ii), Algorithm 6).
func (p *Prep) BuildNonp(ev *NonpEval) (*sched.Schedule, error) {
	s, _, err := p.BuildNonpScratch(ev, nil)
	return s, err
}

// BuildNonpScratch is BuildNonp drawing its working memory from sc: the
// builder's own lists from sc.Nonp, and the run builders' slot arena in
// sc.Run for the slots it emits.  A nil sc allocates fresh memory
// (identical output either way).  It also returns the schedule's
// makespan, the latest slot end it emitted.
func (p *Prep) BuildNonpScratch(ev *NonpEval, sc *BuildScratch) (*sched.Schedule, sched.Rat, error) {
	if !ev.OK {
		return nil, sched.Rat{}, errInternal("BuildNonp on rejected evaluation (%s)", ev.Reason)
	}
	T := ev.T
	if sc == nil {
		sc = &BuildScratch{}
	}
	b := &sc.Nonp.b
	b.reset(p)

	// Step 1: big jobs on machines of their own, then the wrapped jobs.
	b.phase = segStep1
	for i := range p.In.Classes {
		cls := &p.In.Classes[i]
		cs := len(b.candidates)
		for j, t := range cls.Jobs {
			if nonpPart(cls.Setup, t, T) == partBig {
				mi := b.newMachine()
				if cls.Setup > 0 {
					b.put(mi, nonpItem{isSetup: true, class: i, job: -1, length: cls.Setup}, -1)
				}
				b.put(mi, nonpItem{class: i, job: j, length: t}, -1)
				b.candidates = append(b.candidates, mi)
			}
		}
		if jc := newJobCursor(p, i, T, partWrap); !jc.done() {
			last := -1
			for !jc.done() {
				mi := b.newMachine()
				last = mi
				if cls.Setup > 0 {
					b.put(mi, nonpItem{isSetup: true, class: i, job: -1, length: cls.Setup}, -1)
				}
				jc.fill(b, mi, T-cls.Setup)
			}
			if 2*cls.Setup <= T { // cheap: the last wrap machine is a candidate
				b.candidates = append(b.candidates, last)
			}
		}
		b.states[i] = nonpClassState{candidates: b.candidates[cs:], rest: newJobCursor(p, i, T, partRest)}
	}

	// Step 2: top up candidate machines with the class's remaining jobs.
	b.phase = segStep2
	for i := range b.states {
		st := &b.states[i]
		for _, mi := range st.candidates {
			if st.rest.done() {
				break
			}
			if load := b.machines[mi].load; load < T {
				st.rest.fill(b, mi, T-load)
			}
		}
	}

	// Step 3: greedy fill with the residual sequence Q.  A machine closes
	// when its load reaches the border T; the border item stays for now
	// and is relocated in step 4b, which also restores missing setups of
	// batches continuing across machines.
	b.phase = segStep3
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
			b.order = append(b.order, cur)
			return nil
		}
	}
	place := func(it nonpItem, parent int) error {
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
		idx := len(b.items)
		b.put(mi, it, parent)
		if m := &b.machines[mi]; m.load >= T {
			m.crossing = idx
			cur = -1
		}
		return nil
	}
	for i := range b.states {
		jc := &b.states[i].rest
		if jc.done() {
			continue
		}
		if s := p.In.Classes[i].Setup; s > 0 {
			if err := place(nonpItem{isSetup: true, class: i, job: -1, length: s}, -1); err != nil {
				return nil, sched.Rat{}, err
			}
		}
		for ; !jc.done(); jc.next() {
			if err := place(jc.piece(b, jc.left)); err != nil {
				return nil, sched.Rat{}, err
			}
		}
	}

	// Step 4a: restore non-preemption.  Prefer hosting the whole job at a
	// piece that is a border (crossing) item, so that step 4b still moves
	// it (and its fresh setup) below the continuation.
	for pi := range b.parents {
		par := &b.parents[pi]
		if par.head == par.tail {
			if it := &b.items[b.pieces[par.head].item]; it.length != par.total {
				return nil, sched.Rat{}, errInternal("sole piece of job (%d,%d) has length %d of %d",
					par.class, par.job, it.length, par.total)
			}
			continue
		}
		host := -1
		for q := par.head; q >= 0 && host < 0; q = b.pieces[q].next {
			if pc := b.pieces[q]; b.machines[pc.mach].crossing == pc.item {
				host = q
			}
		}
		for q := par.head; q >= 0 && host < 0; q = b.pieces[q].next {
			if pc := b.pieces[q]; pc.item == b.lastItem(pc.mach) {
				host = q
			}
		}
		if host < 0 {
			return nil, sched.Rat{}, errInternal("no machine-last piece for split job (%d,%d)", par.class, par.job)
		}
		for q := par.head; q >= 0; q = b.pieces[q].next {
			if it := &b.items[b.pieces[q].item]; q == host {
				it.length = par.total
			} else {
				it.deleted = true
			}
		}
	}

	// Step 4b: move surviving border items below the next machine's
	// step-3 items.  Every surviving item is whole now.
	for oi := len(b.order) - 1; oi >= 0; oi-- {
		m := &b.machines[b.order[oi]]
		if m.crossing < 0 {
			continue
		}
		it := b.items[m.crossing]
		if it.deleted {
			continue
		}
		recv := -1
		if oi+1 < len(b.order) {
			recv = b.order[oi+1]
			b.phase = segMoved
		} else {
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
			if !it.isSetup { // a trailing setup enables nothing; drop it
				recv = b.order[0]
			}
			b.phase = segRelocated
		}
		b.items[m.crossing].deleted = true
		if recv < 0 {
			continue
		}
		if s := p.In.Classes[it.class].Setup; s > 0 && !it.isSetup {
			b.put(recv, nonpItem{isSetup: true, class: it.class, job: -1, length: s}, -1)
		}
		b.put(recv, it, -1)
	}

	// Emit every machine's live items in range order into the slot
	// arena, dropping each setup that no job of its class directly
	// follows.  All times are integral here, so the running top stays in
	// int64.
	arena := grown(sc.Run.arena, len(b.items))
	var top, peak int64
	emit := func(it *nonpItem) {
		if it.length == 0 {
			return
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
	for mi := range b.machines {
		m := &b.machines[mi]
		start := len(arena)
		top = 0
		setup := -1 // items index of a live setup awaiting its job
		seg := &m.seg
		for s := range seg {
			for k := seg[s].Lo; k < seg[s].Hi; k++ {
				it := &b.items[k]
				if it.deleted {
					continue
				}
				if it.length < 0 {
					return nil, sched.Rat{}, errInternal("negative slot length %d", it.length)
				}
				if setup >= 0 && !it.isSetup && it.class == b.items[setup].class {
					emit(&b.items[setup])
				}
				setup = -1
				if it.isSetup {
					setup = k
				} else {
					emit(it)
				}
			}
		}
		peak = max(peak, top)
		m.out = wrap.Span{Lo: start, Hi: len(arena)}
	}
	sc.Run.arena = arena
	// Copy the slots once into an exactly sized array (Slot holds no
	// pointers, so the clone skips zeroing what it copies) that every
	// machine's run slices with cap == len: the result never aliases the
	// scratch.
	slots := slices.Clone(arena)
	out := &sched.Schedule{Variant: sched.NonPreemptive, T: sched.R(T), Runs: make([]sched.MachineRun, len(b.machines))}
	for mi := range b.machines {
		out.Runs[mi] = sched.MachineRun{Count: 1, Slots: b.machines[mi].out.Slots(slots)}
	}
	if peak == 0 {
		return out, sched.Rat{}, nil
	}
	return out, sched.R(peak), nil
}
