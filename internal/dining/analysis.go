package dining

// This file wires the Lehmann–Rabin model into the proof method: it
// enumerates the digitized scheduler product, defines the paper's state
// sets over product states, states the five arrows of Section 6.2, checks
// each against the model by exact worst-case value iteration, and rebuilds
// the paper's derivation of T --13,1/8--> C and the expected-time bound of
// 63 as machine-checked artifacts.

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// PState is a scheduler-product state of the Lehmann–Rabin ring.
type PState = sched.State[State]

// Analysis is an enumerated Lehmann–Rabin instance ready for checking.
type Analysis struct {
	// N is the ring size; K the steps-per-window digitization bound.
	N, K int
	// Model is the algorithm; Auto the scheduler product.
	Model *Model
	// MDP and Index hold the enumerated product. NewAnalysisOpts
	// explores the ring's quotient by rotations and reflections, one
	// representative per orbit (sched.Symmetric), with Index.Len
	// counting product states. A check on the quotient is sound for
	// sets that every rotation and reflection maps onto themselves, as
	// every registry set is; a set that names a process (say, "process
	// 0 is critical") needs the full product (Unreduced).
	MDP   *mdp.MDP
	Index *mdp.Index[PState]
	// Universe is the reachable product space, for subset side conditions.
	Universe *core.Universe[PState]
	// Schema names the digitized Unit-Time schema.
	Schema core.SchemaInfo

	sets map[string]core.Set[PState]

	// The five arrows' check, run once: CheckPaperChain and
	// BuildPaperProof both read it.
	chainOnce sync.Once
	chain     []core.CheckResult[PState]
	chainErr  error
}

// Opts configures the exploration of the product space: its state
// limit, its worker count (which the solvers inherit) and its memory
// budget.
type Opts = mdp.ExploreOptions

// NewAnalysisOpts explores the model's n-process product under the
// k-steps-per-window digitization with the on-the-fly CSR explorer,
// which interns product states by value; every solver runs opts.Workers
// wide. State numbering is pa.Reachable's breadth-first order, so every
// analysis result is the same for any opts.Workers. The ring's product
// is explored as its quotient by the ring's symmetry, which has the
// same optimal values; Unreduced explores every state.
func NewAnalysisOpts(n, k int, opts Opts) (*Analysis, error) {
	model, err := New(n)
	if err != nil {
		return nil, err
	}
	auto, err := sched.Product[State](model, sched.Config{StepsPerWindow: k})
	if err != nil {
		return nil, err
	}
	m, ix, err := mdp.Explore(auto, opts)
	if err != nil {
		return nil, fmt.Errorf("dining: exploring product: %w", err)
	}
	return newAnalysis(n, k, model, m, ix), nil
}

// Unreduced explores a's product again without the ring's symmetry:
// every product state is its own MDP state, numbered in breadth-first
// order. Its checks are sound for any set, one that names a process
// included, and its states are the full product's, as output that names
// them (a PRISM export) needs.
func (a *Analysis) Unreduced(opts Opts) (*Analysis, error) {
	auto, err := fullProduct(a.Model, a.K)
	if err != nil {
		return nil, err
	}
	m, ix, err := mdp.Explore(auto, opts)
	if err != nil {
		return nil, fmt.Errorf("dining: exploring product: %w", err)
	}
	return newAnalysis(a.N, a.K, a.Model, m, ix), nil
}

// fullProduct returns m's k-product with the ring's symmetry hidden, so
// that every product state is its own.
func fullProduct(m *Model, k int) (*pa.Automaton[PState], error) {
	return sched.Product(sched.Unreduced[State](m), sched.Config{StepsPerWindow: k})
}

func newAnalysis(n, k int, model *Model, m *mdp.MDP, ix *mdp.Index[PState]) *Analysis {
	a := &Analysis{
		N:        n,
		K:        k,
		Model:    model,
		MDP:      m,
		Index:    ix,
		Universe: core.NewUniverse(ix.States()),
		Schema:   core.UnitTimeSchema(k),
	}
	a.sets = map[string]core.Set[PState]{
		"T":  a.set("T", InT),
		"C":  a.set("C", InC),
		"RT": a.set("RT", InRT),
		"F":  a.set("F", InF),
		"G":  a.set("G", InG),
		"P":  a.set("P", InP),
	}
	return a
}

func (a *Analysis) set(name string, pred func(State) bool) core.Set[PState] {
	return core.NewSet(name, sched.LiftPred(pred))
}

// Sets returns the registry of the paper's named state sets, lifted to
// product states.
func (a *Analysis) Sets() map[string]core.Set[PState] {
	out := make(map[string]core.Set[PState], len(a.sets))
	for k, v := range a.sets {
		out[k] = v
	}
	return out
}

// Set returns a named set from the registry.
func (a *Analysis) Set(name string) core.Set[PState] { return a.sets[name] }

// mask returns a registry set's membership over the indexed states, read
// off the set's memoized extent.
func (a *Analysis) mask(name string) []bool { return a.sets[name].Mask(a.Index.States()) }

// stmt builds a statement from registry names and string bounds.
func (a *Analysis) stmt(fromExpr, toExpr, time, pr string) core.Statement[PState] {
	from, err := core.ParseSetExpr(a.sets, fromExpr)
	if err != nil {
		panic(err) // registry is static; a failure is a programming error
	}
	to, err := core.ParseSetExpr(a.sets, toExpr)
	if err != nil {
		panic(err)
	}
	return core.Statement[PState]{
		From:   from,
		To:     to,
		Time:   prob.MustParseRat(time),
		Prob:   prob.MustParseRat(pr),
		Schema: a.Schema,
	}
}

// PaperStatements returns the five arrows of Section 6.2 in proof order:
//
//	T  --2,1-->   RT∪C   (Proposition A.3)
//	RT --3,1-->   F∪G∪P  (Proposition A.15)
//	F  --2,1/2--> G∪P    (Proposition A.14)
//	G  --5,1/4--> P      (Proposition A.11)
//	P  --1,1-->   C      (Proposition A.1)
func (a *Analysis) PaperStatements() []core.Statement[PState] {
	return []core.Statement[PState]{
		a.stmt("T", "RT+C", "2", "1"),
		a.stmt("RT", "F+G+P", "3", "1"),
		a.stmt("F", "G+P", "2", "1/2"),
		a.stmt("G", "P", "5", "1/4"),
		a.stmt("P", "C", "1", "1"),
	}
}

// PaperStatementOrigins names the appendix proposition behind each
// statement of PaperStatements, index-aligned.
func PaperStatementOrigins() []string {
	return []string{
		"Proposition A.3",
		"Proposition A.15",
		"Proposition A.14",
		"Proposition A.11",
		"Proposition A.1",
	}
}

// ComposedStatement returns the headline claim T --13,1/8--> C.
func (a *Analysis) ComposedStatement() core.Statement[PState] {
	return a.stmt("T", "C", "13", "1/8")
}

// CheckPaperChain checks the five arrows against the enumerated model and
// returns the results in proof order (on an error, those checked before
// it). The check runs once per Analysis; every call returns its own copy
// of the results.
func (a *Analysis) CheckPaperChain() ([]core.CheckResult[PState], error) {
	a.chainOnce.Do(func() {
		a.chain, a.chainErr = core.CheckAll(a.MDP, a.Index, a.PaperStatements()...)
	})
	return slices.Clone(a.chain), a.chainErr
}

// BuildPaperProof reproduces the Section 6.2 derivation: each premise is
// checked against the model (by CheckPaperChain, so the arrows are solved
// once whichever of the two runs first), weakened per Proposition 3.2 so
// the chain connects, and composed by Theorem 3.4 into T --13,1/8--> C.
func (a *Analysis) BuildPaperProof() (*core.Proof[PState], error) {
	results, checkErr := a.CheckPaperChain()
	origins := PaperStatementOrigins()

	premises := make([]*core.Proof[PState], len(results))
	for i, r := range results {
		p, err := r.Premise(origins[i])
		if err != nil {
			return nil, err
		}
		premises[i] = p
	}
	if checkErr != nil {
		return nil, checkErr
	}

	cSet := a.Set("C")
	pSet := a.Set("P")
	gSet := a.Set("G")

	// Weaken each interior arrow so that consecutive targets and sources
	// match: the paper's implicit applications of Proposition 3.2.
	w2, err := core.Weaken(premises[1], cSet) // RT∪C --3,1--> F∪G∪P∪C
	if err != nil {
		return nil, err
	}
	w3, err := core.Weaken(premises[2], core.Union(gSet, pSet, cSet)) // F∪G∪P∪C --2,1/2--> (G∪P)∪(G∪P∪C)
	if err != nil {
		return nil, err
	}
	w3, err = core.RenameTo(a.Universe, w3, core.Union(gSet, pSet, cSet)) // ... --> G∪P∪C
	if err != nil {
		return nil, err
	}
	w4, err := core.Weaken(premises[3], core.Union(pSet, cSet)) // G∪P∪C --5,1/4--> P∪(P∪C)
	if err != nil {
		return nil, err
	}
	w4, err = core.RenameTo(a.Universe, w4, core.Union(pSet, cSet)) // ... --> P∪C
	if err != nil {
		return nil, err
	}
	w5, err := core.Weaken(premises[4], cSet) // P∪C --1,1--> C∪C
	if err != nil {
		return nil, err
	}
	w5, err = core.RenameTo(a.Universe, w5, cSet) // ... --> C
	if err != nil {
		return nil, err
	}

	return core.ComposeChain(a.Universe, premises[0], w2, w3, w4, w5)
}

// RetryLoop returns the Section 6.2 expected-time loop: the three
// probabilistic phases from RT, whose failure returns the state to RT.
func (a *Analysis) RetryLoop() core.RetryLoop {
	stmts := a.PaperStatements()
	return core.RetryLoop{Phases: core.PhasesFromStatements(stmts[1], stmts[2], stmts[3])}
}

// ExpectedTimeBound returns the paper's derived bound on the expected time
// from T to C: entry arrow (2) + E[loop] (60) + exit arrow (1) = 63.
func (a *Analysis) ExpectedTimeBound() (prob.Rat, error) {
	return a.RetryLoop().ExpectedTimeBound(prob.FromInt(2), prob.One())
}

// WorstExpectedTime computes, by value iteration on the product MDP, the
// supremum over digitized adversaries of the expected time until some
// process is in C, from the worst reachable state in T. It is the measured
// counterpart of ExpectedTimeBound.
func (a *Analysis) WorstExpectedTime() (float64, PState, error) {
	return core.WorstExpectedTime(a.Index, a.Set("T"), a.Set("C"), a.MDP.MaxExpectedTicks)
}

// BestExpectedTime computes the infimum over digitized adversaries of the
// expected time until some process is in C, from the worst T state for
// that metric — the cooperative-scheduler counterpart of
// WorstExpectedTime, bounding the spread any scheduler can induce.
func (a *Analysis) BestExpectedTime() (float64, error) {
	best, _, err := core.WorstExpectedTime(a.Index, a.Set("T"), a.Set("C"), a.MDP.MinExpectedTicks)
	return best, err
}

// ProgressCurve computes the exact worst-case probability of reaching C
// from the worst T state, for every horizon up to maxHorizon — the
// quantitative landscape around the paper's (13, 1/8) point, and the
// lower-bound information Section 7 asks for: horizons where the curve is
// below 1/8 certify that the claim fails there against the digitized
// adversaries.
func (a *Analysis) ProgressCurve(maxHorizon int) ([]core.CurvePoint, error) {
	return core.WorstCaseCurve(a.MDP, a.Index, a.Set("T"), a.Set("C"), maxHorizon)
}

// WorstWitness renders the most-damning schedule of a checked statement,
// walked from its worst source state: the adversary choices and coin
// outcomes that minimize the probability of reaching its target in time.
// It solves nothing: r must carry the strategy of core.CheckStrategy.
func (a *Analysis) WorstWitness(r core.CheckResult[PState]) ([]string, error) {
	steps, err := a.witness(r)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(steps)+1)
	out = append(out, fmt.Sprintf("start %v (worst-case P = %v)", r.WorstState.Base, r.WorstProb))
	t := 0
	for _, ws := range steps {
		if ws.action == sched.TickAction {
			t++
		}
		out = append(out, fmt.Sprintf("t<=%-2d %-9s p=%-4v -> %v",
			t, ws.action, ws.p, ws.next.Base))
	}
	return out, nil
}

// witnessStep is one step of a witness in the full product: from from,
// the adversary takes action and the coin lands on next, which the step
// reaches with probability p.
type witnessStep struct {
	from, next PState
	action     string
	p          prob.Rat
}

// witness walks r's strategy through the full product, so the schedule
// names real processes: at each state it takes the first of the
// product's steps that attains the state's optimal value, reading every
// successor's value at its orbit's representative, then the first
// branch of least value (the most damning coin outcome). It stops at a
// target, at a state without choices, where the move is a tick with no
// tick left (the adversary lets time expire), or after 4·(horizon+1)
// steps.
func (a *Analysis) witness(r core.CheckResult[PState]) ([]witnessStep, error) {
	st := r.Strategy
	if st == nil {
		return nil, errors.New("dining: the check result carries no strategy (check with core.CheckStrategy)")
	}
	full, err := fullProduct(a.Model, a.K)
	if err != nil {
		return nil, err
	}
	id := func(ps PState) int {
		i, _ := a.Index.ID(sched.Canon[State](a.Model, ps))
		return i
	}
	value := func(ps PState, ticksLeft int) prob.Rat {
		v, _ := st.Value(id(ps), ticksLeft)
		return v
	}
	horizon := st.Horizon()
	var out []witnessStep
	for x, h := r.WorstState, horizon; len(out) < 4*(horizon+1); {
		if st.Choice(id(x), h) < 0 {
			break
		}
		want, _ := st.Value(id(x), h)
		var (
			move  pa.Step[PState]
			left  int
			found bool
		)
		for _, step := range full.Steps(x) {
			left = h
			if step.Action == sched.TickAction {
				left--
			}
			v := prob.Zero()
			if left >= 0 {
				for j, y := range step.Next.Support() {
					v = v.Add(step.Next.Weights()[j].Mul(value(y, left)))
				}
			}
			if v.Equal(want) {
				move, found = step, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("dining: no step of %v attains its worst-case value %v", x, want)
		}
		if left < 0 {
			break
		}
		next, p := move.Next.Support()[0], move.Next.Weights()[0]
		for j, y := range move.Next.Support()[1:] {
			if value(y, left).Less(value(next, left)) {
				next, p = y, move.Next.Weights()[j+1]
			}
		}
		out = append(out, witnessStep{from: x, next: next, action: move.Action, p: p})
		x, h = next, left
	}
	return out, nil
}

// QualitativeProgress runs the Zuck–Pnueli-style baseline: does every
// digitized adversary drive every reachable T-state to C with probability
// one? It returns the number of T-states and how many of them satisfy the
// almost-sure property, counted in product states.
func (a *Analysis) QualitativeProgress() (total, almostSure int) {
	one := a.MDP.MinProbOne(a.mask("C"))
	for i, in := range a.mask("T") {
		if in {
			o := a.Index.Orbit(i)
			total += o
			if one[i] {
				almostSure += o
			}
		}
	}
	return total, almostSure
}
