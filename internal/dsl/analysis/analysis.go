// Package analysis is Guardrail's one program-diagnostic pipeline: the
// static checks for DSL programs, built on the exact finite-domain solver
// in internal/smt/sat. A program that parses and validates (dsl.Validate)
// can still be degenerate, and a degenerate program silently weakens the
// runtime guardrail. The passes share one branch-liveness loop per
// statement and report:
//
//   - dead branches: a guard unsatisfiable over the row universe, or
//     covered by the union of earlier guards (first match wins);
//   - contradictions: a dead branch shadowed by one earlier live branch
//     that assigns a different value;
//   - dead statements, exhaustive guards, self-dependencies, and literals
//     or attributes outside the dataset dictionary;
//   - across statements: semantic containment, contradictory assignments
//     on overlapping regions, and cyclic determinant chains.
//
// Findings runs the passes alone; the synthesizer prunes every candidate
// program with an error-severity finding before coverage scoring. Program
// adds a whole-program semantic fingerprint (equal fingerprints imply
// equivalent programs), which the synthesizer also uses to dedupe
// candidates, and a semantics-preserving minimizer whose output is
// re-proved equivalent by independent solver queries. `guardrail analyze`
// and its alias `guardrail lint` print that report.
package analysis

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// Severity grades a finding.
type Severity int

const (
	// Info marks structural facts worth surfacing that are not defects
	// (exhaustive branch guards).
	Info Severity = iota
	// Warning marks redundancy or suspicious structure that does not
	// change runtime behavior (shadowed branches, subsumed statements,
	// cyclic determinant chains).
	Warning
	// Error marks semantic defects that make the program untrustworthy as
	// a guardrail (unsatisfiable guards, contradictions, dead statements,
	// out-of-dictionary literals).
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return "info"
}

// MarshalJSON renders the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Class identifies the diagnostic.
type Class int

const (
	// DeadBranch: a branch that can never fire — its guard is
	// unsatisfiable over the row universe, or earlier guards cover its
	// entire region (first match wins) and assign the same value.
	DeadBranch Class = iota
	// ExhaustiveGuards: a statement whose branch guards cover every
	// fully-observed row of the value domain, so the statement always
	// fires on complete rows.
	ExhaustiveGuards
	// SubsumedStatement: a statement semantically contained in another
	// with the same dependent attribute — wherever it fires, the other
	// fires and assigns the same value.
	SubsumedStatement
	// StatementContradiction: two statements with the same dependent
	// attribute that assign different values on a satisfiable region
	// overlap, guaranteeing a violation on every such row.
	StatementContradiction
	// Contradiction: a dead branch shadowed by a single earlier live
	// branch that assigns a different value — the later branch never
	// takes effect and disagrees with the one that shadows it.
	Contradiction
	// SelfDependency: a statement whose dependent attribute appears in its
	// own GIVEN set or is tested by one of its branch conditions.
	SelfDependency
	// Cycle: statements whose determinant chains form a directed cycle
	// (a determines b, b determines a), making rectification
	// order-sensitive.
	Cycle
	// DomainViolation: an attribute index or literal code outside the
	// dataset dictionary, a condition atom on an attribute outside GIVEN,
	// or a branch asserting missingness.
	DomainViolation
	// DeadStatement: a statement with no branches, or with no live branch.
	DeadStatement
)

func (c Class) String() string {
	switch c {
	case DeadBranch:
		return "dead-branch"
	case ExhaustiveGuards:
		return "exhaustive-guards"
	case SubsumedStatement:
		return "subsumed-statement"
	case StatementContradiction:
		return "statement-contradiction"
	case Contradiction:
		return "contradiction"
	case SelfDependency:
		return "self-dependency"
	case Cycle:
		return "cycle"
	case DomainViolation:
		return "domain-violation"
	case DeadStatement:
		return "dead-statement"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// MarshalJSON renders the class as its string name.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// Finding is one diagnostic with its location inside the program.
type Finding struct {
	Class    Class    `json:"class"`
	Severity Severity `json:"severity"`
	// Stmt is the statement index within the program, or -1 for
	// program-level findings.
	Stmt int `json:"stmt"`
	// Branch is the branch index within the statement, or -1 for
	// statement-level findings.
	Branch int `json:"branch"`
	// Other is the index of the related branch (DeadBranch,
	// Contradiction) or statement (SubsumedStatement,
	// StatementContradiction), or -1.
	Other int `json:"other"`
	// Message is the human-readable diagnosis in the surface syntax.
	Message string `json:"message"`
}

// String renders the finding as "severity stmt 2 branch 1 [class]: message",
// dropping the location parts that are -1.
func (f Finding) String() string {
	var loc string
	if f.Stmt >= 0 {
		loc = fmt.Sprintf(" stmt %d", f.Stmt)
	}
	if f.Branch >= 0 {
		loc += fmt.Sprintf(" branch %d", f.Branch)
	}
	return fmt.Sprintf("%s%s [%s]: %s", f.Severity, loc, f.Class, f.Message)
}

// HasErrors reports whether any finding is Error-severity.
func HasErrors(fs []Finding) bool {
	for _, f := range fs {
		if f.Severity == Error {
			return true
		}
	}
	return false
}

// Report is the result of running every analysis pass over one program.
type Report struct {
	Findings []Finding
	// Canon is the canonical semantic form of the program; equal canonical
	// forms imply semantically equivalent programs. Fingerprint is its
	// 64-bit FNV-1a hash, for compact reporting.
	Canon       string
	Fingerprint uint64
	// Minimized is the program with dead branches and no-op statements
	// removed; MinimizeProved reports that the minimizer's output was
	// independently re-proved equivalent to the input (solver queries
	// plus, when the relation is available, row-by-row execution).
	Minimized       *dsl.Program
	MinimizeProved  bool
	BranchesRemoved int
	StmtsRemoved    int
	// SolverCalls counts the core satisfiability queries the passes ran —
	// the analysis.solver_calls metric.
	SolverCalls int64
}

// Findings runs the diagnostic passes over p, without the canonical form
// and the minimizer. rel supplies per-attribute domain cardinalities
// (nil leaves every domain unbounded, which disables dictionary checks
// and union-exhaustiveness reasoning) and attribute/literal names for
// messages. Findings are ordered by statement, then branch, then class.
func Findings(p *dsl.Program, rel *dataset.Relation) []Finding {
	fs, _ := passes(p, rel, sat.DomainsOf(rel))
	return fs
}

// Program runs the diagnostic passes over p (see Findings), then
// canonicalizes and minimizes it.
func Program(p *dsl.Program, rel *dataset.Relation) *Report {
	rpt := &Report{}
	if p == nil {
		return rpt
	}
	dom := sat.DomainsOf(rel)
	rpt.Findings, rpt.SolverCalls = passes(p, rel, dom)

	canon, canonCalls := Canon(p, dom)
	rpt.Canon = canon
	rpt.Fingerprint = Fingerprint(canon)

	min, proved, minCalls := Minimize(p, dom)
	rpt.Minimized = min
	rpt.MinimizeProved = proved
	rpt.BranchesRemoved = p.NumBranches() - min.NumBranches()
	rpt.StmtsRemoved = len(p.Stmts) - len(min.Stmts)
	// Second, independent opinion when the dataset is at hand and the
	// program is executable over it: replay every row through both
	// programs.
	if proved && rel != nil && p.Validate(rel) == nil {
		rpt.MinimizeProved = dsl.Equivalent(p, min, rel)
	}

	rpt.SolverCalls += canonCalls + minCalls
	return rpt
}

// analyzer accumulates the findings of one passes run.
type analyzer struct {
	p   *dsl.Program
	rel *dataset.Relation
	s   *sat.Solver // runtime universe: dictionary codes plus Missing
	vs  *sat.Solver // observed values only, for exhaustiveness
	fs  []Finding
}

func (a *analyzer) add(c Class, sev Severity, stmt, branch, other int, format string, args ...any) {
	a.fs = append(a.fs, Finding{Class: c, Severity: sev, Stmt: stmt, Branch: branch, Other: other,
		Message: fmt.Sprintf(format, args...)})
}

// passes runs every diagnostic pass and returns the sorted findings with
// the solver queries spent.
func passes(p *dsl.Program, rel *dataset.Relation, dom sat.Domains) ([]Finding, int64) {
	if p == nil {
		return nil, 0
	}
	a := &analyzer{p: p, rel: rel, s: sat.NewSolver(dom), vs: sat.NewValueSolver(dom)}
	live := make([][]bool, len(p.Stmts))
	for si := range p.Stmts {
		live[si] = a.statement(si)
	}
	a.cycles()

	// Cross-statement passes over pairs sharing a dependent attribute.
	for i := range p.Stmts {
		for j := i + 1; j < len(p.Stmts); j++ {
			sa, sb := p.Stmts[i], p.Stmts[j]
			if sa.On != sb.On {
				continue
			}
			if a.contradiction(i, live[i], j, live[j]) {
				continue // contradictory statements cannot subsume each other
			}
			fwd := hasLive(live[j]) && subsumes(a.s, sa, live[i], sb, live[j])
			back := hasLive(live[i]) && subsumes(a.s, sb, live[j], sa, live[i])
			switch {
			case fwd && back:
				a.add(SubsumedStatement, Warning, j, -1, i,
					"statement is semantically equivalent to statement %d (same value on every row it fires on)", i)
			case fwd:
				a.add(SubsumedStatement, Warning, j, -1, i,
					"statement is semantically contained in statement %d: wherever it fires, statement %d assigns the same value", i, i)
			case back:
				a.add(SubsumedStatement, Warning, i, -1, j,
					"statement is semantically contained in statement %d: wherever it fires, statement %d assigns the same value", j, j)
			}
		}
	}

	sort.SliceStable(a.fs, func(i, j int) bool {
		x, y := a.fs[i], a.fs[j]
		if x.Stmt != y.Stmt {
			return x.Stmt < y.Stmt
		}
		if x.Branch != y.Branch {
			return x.Branch < y.Branch
		}
		return x.Class < y.Class
	})
	return a.fs, a.s.Calls() + a.vs.Calls()
}

// statement runs the per-statement passes over statement si and returns
// its live-branch mask: the one liveness loop every branch-level verdict
// reads.
func (a *analyzer) statement(si int) []bool {
	st := a.p.Stmts[si]
	on := dsl.AttrName(st.On, a.rel)
	if slices.Contains(st.Given, st.On) {
		a.add(SelfDependency, Error, si, -1, -1, "dependent attribute %s appears in its own GIVEN set", on)
	}
	if len(st.Branches) == 0 {
		a.add(DeadStatement, Error, si, -1, -1, "statement ON %s has no branches", on)
		return nil
	}
	live := make([]bool, len(st.Branches))
	for bi, b := range st.Branches {
		for _, pr := range b.Cond {
			if pr.Attr == st.On {
				a.add(SelfDependency, Error, si, bi, -1, "condition tests the dependent attribute %s", on)
			} else if !slices.Contains(st.Given, pr.Attr) {
				a.add(DomainViolation, Warning, si, bi, -1, "condition tests %s, which is outside the GIVEN set",
					dsl.AttrName(pr.Attr, a.rel))
			}
		}
		a.domain(si, bi, st.On, b.Value, "THEN")
		for _, pr := range b.Cond {
			a.domain(si, bi, pr.Attr, pr.Value, "IF")
		}

		if !a.s.SatisfiableCond(b.Cond) {
			a.add(DeadBranch, Error, si, bi, -1, "guard %s is unsatisfiable over the row universe",
				dsl.FormatCondition(b.Cond, a.rel))
			continue
		}
		if a.s.SatMinus(b.Cond, guardsUpto(st, bi)) {
			live[bi] = true
			continue
		}
		// Dead by shadowing. Prefer naming a single shadowing branch; fall
		// back to the union when no individual earlier guard implies this
		// one.
		other := -1
		for ei := 0; ei < bi; ei++ {
			if live[ei] && a.s.ImpliesCond(b.Cond, st.Branches[ei].Cond) {
				other = ei
				break
			}
		}
		switch guard := dsl.FormatCondition(b.Cond, a.rel); {
		case other < 0:
			a.add(DeadBranch, Warning, si, bi, -1, "guard %s is covered by the union of earlier guards and never fires", guard)
		case st.Branches[other].Value != b.Value:
			a.add(Contradiction, Error, si, bi, other, "%s is shadowed by branch %d, which assigns %s <- %s instead",
				dsl.FormatBranch(b, st.On, a.rel), other, on, dsl.LiteralString(st.On, st.Branches[other].Value, a.rel))
		default:
			a.add(DeadBranch, Warning, si, bi, other, "guard %s is shadowed by branch %d and never fires", guard, other)
		}
	}
	if !hasLive(live) {
		a.add(DeadStatement, Error, si, -1, -1, "statement ON %s has no reachable branch", on)
	}
	if a.vs.Exhaustive(guardsUpto(st, len(st.Branches))) {
		a.add(ExhaustiveGuards, Info, si, -1, -1, "branch guards cover every fully-observed row, so %s is always constrained", on)
	}
	return live
}

// domain checks one literal of branch bi of statement si — attribute
// attr bound to code v on the what ("IF" or "THEN") side — against the
// dataset dictionary.
func (a *analyzer) domain(si, bi, attr int, v int32, what string) {
	rel := a.rel
	switch {
	case rel != nil && (attr < 0 || attr >= rel.NumAttrs()):
		a.add(DomainViolation, Error, si, bi, -1, "%s attribute index %d is outside the schema", what, attr)
	case rel != nil && v != dataset.Missing && (v < 0 || int(v) >= rel.Cardinality(attr)):
		a.add(DomainViolation, Error, si, bi, -1, "%s literal code %d is not in the dictionary of %s (cardinality %d)",
			what, v, rel.Attr(attr), rel.Cardinality(attr))
	case v == dataset.Missing:
		a.add(DomainViolation, Warning, si, bi, -1, "%s asserts missingness of %s, which a constraint cannot test",
			what, dsl.AttrName(attr, rel))
	}
}

// cycles reports the directed cycles of the determinant graph — an edge
// g → on for every statement "GIVEN ... g ... ON on" — once per distinct
// set of statements, anchored at the smallest statement involved. A cycle
// means rectification output depends on statement order (a determines b
// while b determines a), so the program is not a well-founded
// data-generating process.
func (a *analyzer) cycles() {
	type edge struct{ to, stmt int }
	adj := map[int][]edge{}
	for si, st := range a.p.Stmts {
		for _, g := range st.Given {
			adj[g] = append(adj[g], edge{to: st.On, stmt: si})
		}
	}
	nodes := make([]int, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	const (
		unvisited = iota
		inStack
		done
	)
	state := map[int]int{}
	seen := map[string]bool{} // reported statement sets
	// The current DFS path: stmts[i] induces the edge into attrs[i+1].
	var attrs, stmts []int
	var dfs func(n int)
	dfs = func(n int) {
		state[n] = inStack
		for _, e := range adj[n] {
			switch state[e.to] {
			case unvisited:
				attrs, stmts = append(attrs, e.to), append(stmts, e.stmt)
				dfs(e.to)
				attrs, stmts = attrs[:len(attrs)-1], stmts[:len(stmts)-1]
			case inStack:
				// The cycle is the path suffix starting at e.to, closed by e.
				start := slices.Index(attrs, e.to)
				a.cycle(append(slices.Clone(attrs[start:]), e.to), append(slices.Clone(stmts[start:]), e.stmt), seen)
			}
		}
		state[n] = done
	}
	for _, n := range nodes {
		if state[n] == unvisited {
			attrs, stmts = []int{n}, nil
			dfs(n)
		}
	}
}

// cycle reports one closed attribute walk (first == last) whose edges
// the statements in stmts induce, unless its statement set was reported
// already.
func (a *analyzer) cycle(walk, stmts []int, seen map[string]bool) {
	ids := slices.Clone(stmts)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	key := fmt.Sprint(ids)
	if seen[key] {
		return
	}
	seen[key] = true
	names := make([]string, len(walk))
	for i, n := range walk {
		names[i] = dsl.AttrName(n, a.rel)
	}
	a.add(Cycle, Warning, ids[0], -1, -1,
		"determinant chain is cyclic (%s) across statements %v; rectification becomes order-sensitive",
		strings.Join(names, " -> "), ids)
}

// guardsUpto collects the guards of branches [0, k) of st as a DNF — the
// union of conditions an earlier branch would have matched first.
func guardsUpto(st dsl.Statement, k int) sat.DNF {
	g := make(sat.DNF, 0, k)
	for i := 0; i < k; i++ {
		g = append(g, st.Branches[i].Cond)
	}
	return g
}

// LiveMask marks each branch of st whose region (guard minus the union of
// earlier guards) contains at least one row of s's universe. Exported for
// the compiler's dead-branch pass, which must agree exactly with the
// analyzer's notion of liveness.
func LiveMask(s *sat.Solver, st dsl.Statement) []bool { return liveMask(s, st) }

// StatementSubsumes reports a ⊒ b over s's universe: on every row where
// some branch of b fires, some branch of a fires and assigns the same
// value. Exported for the compiler's subsumption pass and its independent
// re-proof during translation validation.
func StatementSubsumes(s *sat.Solver, a, b dsl.Statement) bool {
	return subsumes(s, a, liveMask(s, a), b, liveMask(s, b))
}

// liveMask marks each branch of st whose region (guard minus the union of
// earlier guards) contains at least one universe row.
func liveMask(s *sat.Solver, st dsl.Statement) []bool {
	live := make([]bool, len(st.Branches))
	for bi, b := range st.Branches {
		live[bi] = s.SatMinus(b.Cond, guardsUpto(st, bi))
	}
	return live
}

func hasLive(mask []bool) bool {
	for _, l := range mask {
		if l {
			return true
		}
	}
	return false
}

// subsumes reports a ⊒ b: on every universe row where some branch of b
// fires, some branch of a fires and assigns the same value. Each live
// branch of b must have its region covered by a's guard union, and must
// not overlap any region of a that assigns a different value.
func subsumes(s *sat.Solver, a dsl.Statement, liveA []bool, b dsl.Statement, liveB []bool) bool {
	allA := guardsUpto(a, len(a.Branches))
	for bk, bb := range b.Branches {
		if !liveB[bk] {
			continue
		}
		earlierB := guardsUpto(b, bk)
		if s.SatMinus(bb.Cond, earlierB, allA) {
			return false // some row of b's region escapes a entirely
		}
		for al, ab := range a.Branches {
			if !liveA[al] || ab.Value == bb.Value {
				continue
			}
			both := make(dsl.Condition, 0, len(bb.Cond)+len(ab.Cond))
			both = append(both, bb.Cond...)
			both = append(both, ab.Cond...)
			if s.SatMinus(both, earlierB, guardsUpto(a, al)) {
				return false // regions overlap but values disagree
			}
		}
	}
	return true
}

// contradiction looks for a pair of live branches, one in statement i and
// one in statement j, that assign different values on overlapping
// regions, which guarantees a violation on every row of the overlap. It
// reports the first such pair and whether one was found.
func (a *analyzer) contradiction(i int, liveA []bool, j int, liveB []bool) bool {
	sa, sb := a.p.Stmts[i], a.p.Stmts[j]
	for bk, bb := range sb.Branches {
		if !liveB[bk] {
			continue
		}
		for al, ab := range sa.Branches {
			if !liveA[al] || ab.Value == bb.Value {
				continue
			}
			both := make(dsl.Condition, 0, len(bb.Cond)+len(ab.Cond))
			both = append(both, bb.Cond...)
			both = append(both, ab.Cond...)
			if a.s.SatMinus(both, guardsUpto(sb, bk), guardsUpto(sa, al)) {
				a.add(StatementContradiction, Error, j, bk, i,
					"assigns %s <- %s on rows where statement %d branch %d assigns %s: every overlapping row violates one of them",
					dsl.AttrName(sb.On, a.rel), dsl.LiteralString(sb.On, bb.Value, a.rel),
					i, al, dsl.LiteralString(sa.On, ab.Value, a.rel))
				return true
			}
		}
	}
	return false
}
