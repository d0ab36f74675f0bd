package expt

import (
	"fmt"

	"setupsched/internal/core"
	"setupsched/internal/render"
	"setupsched/internal/wrap"
	"setupsched/sched"
)

// Figure is one regenerated paper figure.
type Figure struct {
	ID    string // e.g. "fig1b"
	Title string
	Notes string
	Art   string
}

// buildAt runs the variant's dual construction at the given guess,
// increasing m as needed until the guess is accepted (figures fix T to
// match the paper's drawings and let the machine count follow).
func buildAt(in *sched.Instance, v sched.Variant, T sched.Rat) (*sched.Schedule, *sched.Instance, error) {
	work := in.Clone()
	for tries := 0; tries < 64; tries++ {
		p := core.Prepare(work)
		switch v {
		case sched.Splittable:
			if ev := p.EvalSplit(T, nil); ev.OK {
				s, err := p.BuildSplit(ev)
				return s, work, err
			}
		case sched.Preemptive:
			if ev := p.EvalPmtn(T, nil); ev.OK {
				s, err := p.BuildPmtn(ev)
				return s, work, err
			}
		default:
			if ev := p.EvalNonp(T); ev.OK {
				s, err := p.BuildNonp(ev)
				return s, work, err
			}
		}
		work.M++
	}
	return nil, nil, fmt.Errorf("expt: guess %s not accepted within machine budget", T)
}

func renderFigure(id, title, notes string, in *sched.Instance, s *sched.Schedule, T sched.Rat) Figure {
	art := render.Legend(in) + render.Gantt(s, &render.Options{T: T, Width: 96, MaxMachines: 28})
	return Figure{ID: id, Title: title, Notes: notes, Art: art}
}

// Figures regenerates the paper's figures from live algorithm runs.
func Figures() ([]Figure, error) {
	var figs []Figure
	T := sched.R(100)

	// --- Figure 1(a): splittable step 1 (expensive classes only) ---
	expOnly := &sched.Instance{M: 13, Classes: []sched.Class{
		{Setup: 60, Jobs: []int64{90, 80}}, // beta = 4
		{Setup: 55, Jobs: []int64{70, 60}}, // beta = 3
		{Setup: 70, Jobs: []int64{30}},     // beta = 1
		{Setup: 52, Jobs: []int64{50, 30}}, // beta = 2
	}}
	s, in, err := buildAt(expOnly, sched.Splittable, T)
	if err != nil {
		return nil, fmt.Errorf("fig1a: %w", err)
	}
	figs = append(figs, renderFigure("fig1a",
		"Figure 1(a): splittable algorithm after step (1)",
		"Expensive classes I_exp = {A,B,C,D} occupy beta_i machines each,\n"+
			"filled to s_i + T/2; the last machine of a class may stay below T.",
		in, s, T))

	// --- Figure 1(b): splittable after step 2 (cheap classes wrapped) ---
	full := expOnly.Clone()
	full.Classes = append(full.Classes,
		sched.Class{Setup: 20, Jobs: []int64{15, 15, 10}},
		sched.Class{Setup: 15, Jobs: []int64{25, 25}},
		sched.Class{Setup: 25, Jobs: []int64{10, 20}},
		sched.Class{Setup: 10, Jobs: []int64{20, 15}},
	)
	s, in, err = buildAt(full, sched.Splittable, T)
	if err != nil {
		return nil, fmt.Errorf("fig1b: %w", err)
	}
	figs = append(figs, renderFigure("fig1b",
		"Figure 1(b): splittable algorithm after step (2)",
		"Cheap classes I_chp = {E,F,G,H} wrap into the reserved windows of the\n"+
			"partially filled machines and into gaps [T/2, 3/2T) on unused machines.",
		in, s, T))

	// --- Figures 2 and 5: the (modified) nice-instance algorithm ---
	nice := &sched.Instance{M: 11, Classes: []sched.Class{
		{Setup: 55, Jobs: []int64{40, 40, 40, 30}},     // I+exp, gamma = 3
		{Setup: 52, Jobs: []int64{45, 45, 45, 45, 20}}, // I+exp, gamma = 4
		{Setup: 60, Jobs: []int64{10}},                 // I-exp
		{Setup: 55, Jobs: []int64{15}},                 // I-exp
		{Setup: 12, Jobs: []int64{20, 20}},             // cheap
		{Setup: 8, Jobs: []int64{25, 15}},              // cheap
		{Setup: 15, Jobs: []int64{30}},                 // cheap
	}}
	s, in, err = buildAt(nice, sched.Preemptive, T)
	if err != nil {
		return nil, fmt.Errorf("fig2: %w", err)
	}
	fig2 := renderFigure("fig2",
		"Figures 2/5: preemptive nice instance (Algorithm 2, Section 4.4 step 1)",
		"I+exp = {A,B} fill gamma_i machines to s_i + T/2 with the residue moved\n"+
			"on top of the last machine; I-exp = {C,D} pair onto one machine; cheap\n"+
			"classes wrap above T/2 on the remaining machines.",
		in, s, T)
	figs = append(figs, fig2)

	// --- Figures 3, 4, 8, 9: general preemptive with large machines ---
	large := &sched.Instance{M: 9, Classes: []sched.Class{
		{Setup: 55, Jobs: []int64{25}},     // I0exp: s+P = 80 in (3/4T, T)
		{Setup: 55, Jobs: []int64{25}},     // I0exp
		{Setup: 55, Jobs: []int64{25}},     // I0exp
		{Setup: 55, Jobs: []int64{25}},     // I0exp
		{Setup: 55, Jobs: []int64{25}},     // I0exp
		{Setup: 55, Jobs: []int64{25}},     // I0exp
		{Setup: 55, Jobs: []int64{25}},     // I0exp
		{Setup: 52, Jobs: []int64{48, 48}}, // I+exp, gamma = 1
		{Setup: 10, Jobs: []int64{45, 4}},  // I*chp: big job 45 (s+t = 55 > T/2)
		{Setup: 6, Jobs: []int64{47}},      // I*chp: big job 47
	}}
	s, in, err = buildAt(large, sched.Preemptive, T)
	if err != nil {
		return nil, fmt.Errorf("fig3: %w", err)
	}
	figs = append(figs, renderFigure("fig3",
		"Figures 3/4/8/9: preemptive general algorithm with large machines",
		"I0exp classes {A..G} sit alone on large machines starting at T/2; the\n"+
			"knapsack (case 3.a) decides which I*chp classes {I,J} stay outside; their\n"+
			"obligatory pieces and the set K fill the bottoms below T/2 (Figure 4).",
		in, s, T))

	// --- Figure 6: a wrap template in action ---
	wrapIn := &sched.Instance{M: 4, Classes: []sched.Class{
		{Setup: 1, Jobs: []int64{5, 4}},
		{Setup: 2, Jobs: []int64{3, 3, 2}},
	}}
	var q wrap.Sequence
	q.AddBatch(0, 1, wrapIn.Classes[0].Jobs, 1)
	q.AddBatch(1, 2, wrapIn.Classes[1].Jobs, 1)
	gaps := []wrap.Gap{{A: 2, B: 9}, {A: 3, B: 8}, {A: 2, B: 7}, {A: 4, B: 9}}
	var placed wrap.Placement
	arena, err := wrap.Wrap(nil, &placed, gaps, wrap.TailRun{}, &q, []int64{1, 2}, 1)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	ws := &sched.Schedule{Variant: sched.Splittable, T: sched.R(6)}
	for _, sp := range placed.Machines {
		ws.AddMachine(sp.Slots(arena))
	}
	figs = append(figs, renderFigure("fig6",
		"Figure 6: Batch Wrapping into a wrap template",
		"A wrap sequence [s_A, C_A, s_B, C_B] wrapped through four gaps; split\n"+
			"jobs continue at the start of the next gap with a fresh setup below it.",
		wrapIn, ws, sched.R(6)))

	// --- Figure 7: the next-fit 2-approximation with m = c = 5 ---
	nf := &sched.Instance{M: 5, Classes: []sched.Class{
		{Setup: 4, Jobs: []int64{9, 8, 7}},
		{Setup: 3, Jobs: []int64{10, 9, 4}},
		{Setup: 5, Jobs: []int64{12, 6}},
		{Setup: 2, Jobs: []int64{8, 8, 5}},
		{Setup: 6, Jobs: []int64{11, 7}},
	}}
	p := core.Prepare(nf)
	s2, err := p.TwoApproxNonPreemptive(sched.NonPreemptive, nil)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	figs = append(figs, renderFigure("fig7",
		"Figure 7: next-fit 2-approximation (m = c = 5)",
		"Next-fit with threshold T_min; items crossing the border move to the\n"+
			"beginning of the next machine with an extra setup (Lemma 9).",
		nf, s2, p.TMin(sched.NonPreemptive)))

	// --- Figures 10-13: non-preemptive Algorithm 6 ---
	nonp := &sched.Instance{M: 8, Classes: []sched.Class{
		{Setup: 60, Jobs: []int64{40, 40, 40, 35, 25}},            // expensive, alpha = 5-ish
		{Setup: 10, Jobs: []int64{55, 52, 60, 45, 44, 12, 11, 9}}, // cheap: J+ and K jobs
		{Setup: 8, Jobs: []int64{20, 14}},
		{Setup: 6, Jobs: []int64{18, 10, 7}},
		{Setup: 12, Jobs: []int64{16, 5}},
	}}
	s3, in, err := buildAt(nonp, sched.NonPreemptive, T)
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	figs = append(figs, renderFigure("fig10",
		"Figures 10-13: non-preemptive Algorithm 6 (final state)",
		"Expensive class A wraps over its obligatory machines; big jobs of cheap\n"+
			"class B own machines; K jobs wrap; steps 2-4 fill to the border T, make\n"+
			"the schedule non-preemptive and relocate border items with new setups.",
		in, s3, T))

	return figs, nil
}
