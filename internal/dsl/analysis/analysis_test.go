package analysis

import (
	"reflect"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// cond builds a conjunction from (attr, value) pairs.
func cond(kv ...int) dsl.Condition {
	c := make(dsl.Condition, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		c = append(c, dsl.Pred{Attr: kv[i], Value: int32(kv[i+1])})
	}
	return c
}

// testRel: attributes a (cardinality 2), b (3), c (2).
func testRel() *dataset.Relation {
	rel := dataset.New("t", []string{"a", "b", "c"})
	rel.AppendRow([]string{"a0", "b0", "c0"})
	rel.AppendRow([]string{"a1", "b1", "c1"})
	rel.AppendRow([]string{"a0", "b2", "c0"})
	return rel
}

func find(fs []Finding, cl Class, stmt, branch int) *Finding {
	for i := range fs {
		if fs[i].Class == cl && fs[i].Stmt == stmt && fs[i].Branch == branch {
			return &fs[i]
		}
	}
	return nil
}

func TestDeadBranchUnsatAndShadow(t *testing.T) {
	p := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0, 1}, On: 2,
		Branches: []dsl.Branch{
			{Cond: cond(0, 0), Value: 0},
			{Cond: cond(0, 0, 1, 1), Value: 0}, // shadowed by branch 0
			{Cond: cond(0, 5), Value: 0},       // literal outside dom(a)={a0,a1}
		},
	}}}
	rpt := Program(p, testRel())
	sh := find(rpt.Findings, DeadBranch, 0, 1)
	if sh == nil || sh.Severity != Warning || sh.Other != 0 {
		t.Errorf("shadowed branch finding = %+v, want warning with Other=0", sh)
	}
	un := find(rpt.Findings, DeadBranch, 0, 2)
	if un == nil || un.Severity != Error {
		t.Errorf("unsatisfiable branch finding = %+v, want error", un)
	}
}

// TestUnionShadowing: the DNF-level verdict a pairwise implication check
// cannot reach — a guard dead only because the union of earlier guards is
// exhaustive.
func TestUnionShadowing(t *testing.T) {
	p := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0, 1}, On: 2,
		Branches: []dsl.Branch{
			{Cond: cond(1, 0), Value: 0},
			{Cond: cond(1, 1), Value: 0},
			{Cond: cond(1, 2), Value: 0},
			{Cond: cond(1, -1), Value: 0}, // b is missing
			{Cond: cond(0, 0), Value: 1},  // covered by the union over dom(b)
		},
	}}}
	rpt := Program(p, testRel())
	f := find(rpt.Findings, DeadBranch, 0, 4)
	if f == nil || f.Severity != Warning || f.Other != -1 {
		t.Fatalf("union-shadowed branch finding = %+v, want warning with Other=-1", f)
	}
	if find(rpt.Findings, ExhaustiveGuards, 0, -1) == nil {
		t.Error("expected an exhaustive-guards info finding")
	}
	// No single earlier branch implies the dead one.
	for _, other := range rpt.Findings {
		if other.Class == DeadBranch && other.Branch != 4 {
			t.Errorf("unexpected dead-branch finding: %v", other)
		}
	}
}

func TestStatementContradiction(t *testing.T) {
	p := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 2, Branches: []dsl.Branch{{Cond: cond(0, 0), Value: 0}}},
		{Given: []int{0}, On: 2, Branches: []dsl.Branch{{Cond: cond(0, 0), Value: 1}}},
	}}
	rpt := Program(p, testRel())
	f := find(rpt.Findings, StatementContradiction, 1, 0)
	if f == nil || f.Severity != Error || f.Other != 0 {
		t.Fatalf("contradiction finding = %+v, want error on stmt 1 with Other=0", f)
	}
	if !HasErrors(rpt.Findings) {
		t.Error("HasErrors should be true")
	}
	for _, g := range rpt.Findings {
		if g.Class == SubsumedStatement {
			t.Errorf("contradictory statements must not also report subsumption: %v", g)
		}
	}
}

func TestSubsumedStatement(t *testing.T) {
	p := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 2, Branches: []dsl.Branch{
			{Cond: cond(0, 0), Value: 0},
			{Cond: cond(0, 1), Value: 1},
		}},
		{Given: []int{0, 1}, On: 2, Branches: []dsl.Branch{
			{Cond: cond(0, 0, 1, 0), Value: 0},
		}},
	}}
	rpt := Program(p, testRel())
	f := find(rpt.Findings, SubsumedStatement, 1, -1)
	if f == nil || f.Severity != Warning || f.Other != 0 {
		t.Fatalf("subsumption finding = %+v, want warning on stmt 1 with Other=0", f)
	}
	if g := find(rpt.Findings, SubsumedStatement, 0, -1); g != nil {
		t.Errorf("the wider statement must not be reported as contained: %v", g)
	}
}

func TestEquivalentStatementsReportedOnce(t *testing.T) {
	st := dsl.Statement{Given: []int{0}, On: 2, Branches: []dsl.Branch{{Cond: cond(0, 0), Value: 0}}}
	p := &dsl.Program{Stmts: []dsl.Statement{st, st}}
	rpt := Program(p, testRel())
	f := find(rpt.Findings, SubsumedStatement, 1, -1)
	if f == nil || f.Other != 0 {
		t.Fatalf("duplicate statement finding = %+v, want one on stmt 1", f)
	}
	if g := find(rpt.Findings, SubsumedStatement, 0, -1); g != nil {
		t.Errorf("duplicate pair reported twice: %v", g)
	}
}

func TestCanonDedupsEquivalentPrograms(t *testing.T) {
	dom := sat.DomainsOf(testRel())
	p1 := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0}, On: 2,
		Branches: []dsl.Branch{{Cond: cond(0, 0), Value: 0}, {Cond: cond(0, 1), Value: 1}},
	}}}
	// Same semantics: different GIVEN set, an extra shadowed branch.
	p2 := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0, 1}, On: 2,
		Branches: []dsl.Branch{
			{Cond: cond(0, 0), Value: 0},
			{Cond: cond(0, 1), Value: 1},
			{Cond: cond(0, 0, 1, 2), Value: 1}, // dead: shadowed by branch 0
		},
	}}}
	c1, calls := Canon(p1, dom)
	c2, _ := Canon(p2, dom)
	if c1 != c2 {
		t.Errorf("canonical forms differ:\n%s\n%s", c1, c2)
	}
	if Fingerprint(c1) != Fingerprint(c2) {
		t.Error("fingerprints differ for equal canonical forms")
	}
	if calls == 0 {
		t.Error("Canon should spend solver calls")
	}
	// A different assigned value must change the canonical form.
	p3 := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0}, On: 2,
		Branches: []dsl.Branch{{Cond: cond(0, 0), Value: 1}, {Cond: cond(0, 1), Value: 1}},
	}}}
	if c3, _ := Canon(p3, dom); c3 == c1 {
		t.Error("programs with different values share a canonical form")
	}
	// Atom order within a guard must not matter.
	p4 := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0, 1}, On: 2,
		Branches: []dsl.Branch{{Cond: cond(1, 2, 0, 0), Value: 0}},
	}}}
	p5 := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0, 1}, On: 2,
		Branches: []dsl.Branch{{Cond: cond(0, 0, 1, 2), Value: 0}},
	}}}
	c4, _ := Canon(p4, dom)
	c5, _ := Canon(p5, dom)
	if c4 != c5 {
		t.Errorf("atom order changed the canonical form:\n%s\n%s", c4, c5)
	}
}

func TestMinimize(t *testing.T) {
	rel := testRel()
	p := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0, 1}, On: 2, Branches: []dsl.Branch{
			{Cond: cond(0, 0), Value: 0},
			{Cond: cond(0, 0, 1, 1), Value: 1}, // shadowed
		}},
		{Given: []int{0}, On: 2, Branches: []dsl.Branch{
			{Cond: cond(0, 0, 0, 1), Value: 0}, // conflicting atoms: dead in any universe
		}},
	}}
	rpt := Program(p, rel)
	if rpt.Minimized == nil || len(rpt.Minimized.Stmts) != 1 {
		t.Fatalf("minimized = %+v, want the dead statement dropped", rpt.Minimized)
	}
	if n := len(rpt.Minimized.Stmts[0].Branches); n != 1 {
		t.Errorf("minimized statement has %d branches, want 1", n)
	}
	if !rpt.MinimizeProved {
		t.Error("minimization should be proved equivalent")
	}
	if rpt.BranchesRemoved != 2 || rpt.StmtsRemoved != 1 {
		t.Errorf("removed = (%d branches, %d stmts), want (2, 1)", rpt.BranchesRemoved, rpt.StmtsRemoved)
	}
	if len(p.Stmts) != 2 || len(p.Stmts[0].Branches) != 2 {
		t.Error("Minimize mutated its input")
	}
	if !dsl.Equivalent(p, rpt.Minimized, rel) {
		t.Error("minimized program behaves differently on the relation")
	}
}

// TestMinimizeConservativeOnWideLiterals: a guard using a literal outside
// the dictionary is dead over the dataset, but the minimizer judges
// liveness over the widened universe (the program could only ever see
// such a row if it wrote the value itself) and must keep it.
func TestMinimizeConservativeOnWideLiterals(t *testing.T) {
	dom := sat.Domains{2}
	p := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0}, On: 1,
		Branches: []dsl.Branch{{Cond: cond(0, 7), Value: 0}},
	}}}
	min, proved, _ := Minimize(p, dom)
	if !proved || len(min.Stmts) != 1 || len(min.Stmts[0].Branches) != 1 {
		t.Errorf("minimizer dropped a branch that is live over the widened universe: %+v", min)
	}
}

func TestWiden(t *testing.T) {
	dom := sat.Domains{2, 3, 0} // attr 2 unbounded
	p := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0}, On: 3,
		Branches: []dsl.Branch{{Cond: cond(0, 5, 2, 9, 1, -1), Value: 4}},
	}}}
	w := widen(dom, p)
	if w.Card(0) != 6 {
		t.Errorf("Card(0) = %d, want 6 (literal 5 mentioned)", w.Card(0))
	}
	if w.Card(1) != 3 {
		t.Errorf("Card(1) = %d, want 3 (Missing literal never widens)", w.Card(1))
	}
	if w.Card(2) != 0 {
		t.Errorf("Card(2) = %d, want 0 (unbounded stays unbounded)", w.Card(2))
	}
	if w.Card(3) != 0 {
		t.Errorf("Card(3) = %d, want 0 (attributes outside the schema stay unbounded)", w.Card(3))
	}
}

func TestReportFingerprintMatchesCanon(t *testing.T) {
	p := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0}, On: 2,
		Branches: []dsl.Branch{{Cond: cond(0, 0), Value: 0}},
	}}}
	rpt := Program(p, testRel())
	if rpt.Fingerprint != Fingerprint(rpt.Canon) {
		t.Error("report fingerprint does not hash its own canonical form")
	}
	if rpt.SolverCalls == 0 {
		t.Error("report should account solver calls")
	}
	if Program(nil, nil).Fingerprint != 0 {
		t.Error("nil program should have the empty fingerprint")
	}
}

// fourRel: attributes a, b, c, d, each with the values "0", "1", "2".
func fourRel() *dataset.Relation {
	rel := dataset.New("t", []string{"a", "b", "c", "d"})
	for _, v := range []string{"0", "1", "2"} {
		rel.AppendRow([]string{v, v, v, v})
	}
	return rel
}

// br builds a branch assigning val under the (attr, value) pairs kv.
func br(val int32, kv ...int) dsl.Branch { return dsl.Branch{Cond: cond(kv...), Value: val} }

func TestDiagnostics(t *testing.T) {
	cases := []struct {
		name      string
		prog      *dsl.Program
		wantClass Class
		wantSev   Severity
		// wantStmt/wantBranch anchor the first finding of wantClass.
		wantStmt, wantBranch int
	}{
		{
			name: "contradiction_equal_guards",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{br(0, 0, 0), br(1, 0, 0)}, // same guard, different value
			}}},
			wantClass: Contradiction, wantSev: Error, wantStmt: 0, wantBranch: 1,
		},
		{
			name: "contradiction_narrower",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0, 2}, On: 1,
				Branches: []dsl.Branch{br(0, 0, 0), br(1, 0, 0, 2, 1)}, // implies a=0, different value
			}}},
			wantClass: Contradiction, wantSev: Error, wantStmt: 0, wantBranch: 1,
		},
		{
			name: "dead-branch_duplicate",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{br(0, 0, 0), br(0, 0, 0)},
			}}},
			wantClass: DeadBranch, wantSev: Warning, wantStmt: 0, wantBranch: 1,
		},
		{
			name: "dead-branch_unsatisfiable",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{br(0, 0, 0, 0, 1), br(1, 0, 2)}, // a=0 AND a=1
			}}},
			wantClass: DeadBranch, wantSev: Error, wantStmt: 0, wantBranch: 0,
		},
		{
			name: "self-dependency_given",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0, 1}, On: 1,
				Branches: []dsl.Branch{br(0, 0, 0)},
			}}},
			wantClass: SelfDependency, wantSev: Error, wantStmt: 0, wantBranch: -1,
		},
		{
			name: "self-dependency_condition",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{br(0, 1, 2)}, // IF b=2 THEN b<-0
			}}},
			wantClass: SelfDependency, wantSev: Error, wantStmt: 0, wantBranch: 0,
		},
		{
			name: "cycle_two_statements",
			prog: &dsl.Program{Stmts: []dsl.Statement{
				{Given: []int{0}, On: 1, Branches: []dsl.Branch{br(0, 0, 0)}},
				{Given: []int{1}, On: 0, Branches: []dsl.Branch{br(0, 1, 0)}},
			}},
			wantClass: Cycle, wantSev: Warning, wantStmt: 0, wantBranch: -1,
		},
		{
			name: "domain-violation_then",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{br(9, 0, 0)}, // THEN b <- code 9, card 3
			}}},
			wantClass: DomainViolation, wantSev: Error, wantStmt: 0, wantBranch: 0,
		},
		{
			name: "domain-violation_if",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{br(0, 0, 77)},
			}}},
			wantClass: DomainViolation, wantSev: Error, wantStmt: 0, wantBranch: 0,
		},
		{
			name:      "dead-statement_no_branches",
			prog:      &dsl.Program{Stmts: []dsl.Statement{{Given: []int{0}, On: 1}}},
			wantClass: DeadStatement, wantSev: Error, wantStmt: 0, wantBranch: -1,
		},
		{
			name: "dead-statement_all_dead",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{br(0, 0, 0, 0, 1), br(1, 0, 2, 0, 1)}, // both unsatisfiable
			}}},
			wantClass: DeadStatement, wantSev: Error, wantStmt: 0, wantBranch: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := Findings(tc.prog, fourRel())
			var hit *Finding
			for i := range fs {
				if fs[i].Class == tc.wantClass {
					hit = &fs[i]
					break
				}
			}
			if hit == nil {
				t.Fatalf("no %v finding; got %v", tc.wantClass, fs)
			}
			if hit.Severity != tc.wantSev {
				t.Errorf("severity = %v, want %v (%s)", hit.Severity, tc.wantSev, hit)
			}
			if hit.Stmt != tc.wantStmt || hit.Branch != tc.wantBranch {
				t.Errorf("location = stmt %d branch %d, want stmt %d branch %d (%s)",
					hit.Stmt, hit.Branch, tc.wantStmt, tc.wantBranch, hit)
			}
			if hit.Message == "" {
				t.Error("finding has empty message")
			}
		})
	}
}

// TestCleanProgramHasNoDefects: a well-formed program draws nothing above
// Info (its first statement's guards are exhaustive over dom(a)).
func TestCleanProgramHasNoDefects(t *testing.T) {
	prog := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 1, Branches: []dsl.Branch{br(0, 0, 0), br(1, 0, 1), br(2, 0, 2)}},
		{Given: []int{1, 2}, On: 3, Branches: []dsl.Branch{br(0, 1, 0, 2, 0), br(1, 1, 1, 2, 1)}},
	}}
	for _, f := range Findings(prog, fourRel()) {
		if f.Severity > Info {
			t.Errorf("clean program produced %s", f)
		}
	}
}

func TestFindingsUseSurfaceNames(t *testing.T) {
	prog := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0}, On: 1,
		Branches: []dsl.Branch{br(0, 0, 0), br(1, 0, 0)},
	}}}
	var joined strings.Builder
	for _, f := range Findings(prog, fourRel()) {
		joined.WriteString(f.String() + "\n")
	}
	for _, want := range []string{"IF a =", "b <-", "[contradiction]"} {
		if !strings.Contains(joined.String(), want) {
			t.Errorf("rendered findings missing %q:\n%s", want, joined.String())
		}
	}
}

func TestNilRelFallsBackToPositionalNames(t *testing.T) {
	prog := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0}, On: 1,
		Branches: []dsl.Branch{br(0, 0, 0), br(1, 0, 0)},
	}}}
	fs := Findings(prog, nil)
	if !HasErrors(fs) {
		t.Fatalf("contradiction not found without rel: %v", fs)
	}
	found := false
	for _, f := range fs {
		if strings.Contains(f.Message, "attr#") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected positional attr names in %v", fs)
	}
}

func TestHasErrors(t *testing.T) {
	if HasErrors(nil) {
		t.Error("empty findings should have no errors")
	}
	if HasErrors([]Finding{{Severity: Info}, {Severity: Warning}}) {
		t.Error("warnings alone are not errors")
	}
	if !HasErrors([]Finding{{Severity: Warning}, {Severity: Error}}) {
		t.Error("error finding not detected")
	}
}

// TestThreeStatementCycle exercises cycle detection beyond the pairwise case.
func TestThreeStatementCycle(t *testing.T) {
	prog := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 1, Branches: []dsl.Branch{br(0, 0, 0)}},
		{Given: []int{1}, On: 2, Branches: []dsl.Branch{br(0, 1, 0)}},
		{Given: []int{2}, On: 0, Branches: []dsl.Branch{br(0, 2, 0)}},
	}}
	fs := Findings(prog, fourRel())
	cycles := 0
	for _, f := range fs {
		if f.Class == Cycle {
			cycles++
			if !strings.Contains(f.Message, "a -> b -> c -> a") {
				t.Errorf("unexpected cycle chain: %s", f.Message)
			}
		}
	}
	if cycles != 1 {
		t.Fatalf("want exactly 1 cycle finding, got %d: %v", cycles, fs)
	}
}

// TestAcyclicChainHasNoCycleFinding: a -> b -> c is a chain, not a cycle.
func TestAcyclicChainHasNoCycleFinding(t *testing.T) {
	prog := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 1, Branches: []dsl.Branch{br(0, 0, 0)}},
		{Given: []int{1}, On: 2, Branches: []dsl.Branch{br(0, 1, 0)}},
	}}
	for _, f := range Findings(prog, fourRel()) {
		if f.Class == Cycle {
			t.Fatalf("chain flagged as cycle: %s", f)
		}
	}
}

// TestFindingsMatchReport: the findings entry point reports exactly the
// full report's findings.
func TestFindingsMatchReport(t *testing.T) {
	p := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 2, Branches: []dsl.Branch{br(0, 0, 0), br(1, 0, 0)}},
		{Given: []int{0}, On: 2, Branches: []dsl.Branch{br(1, 0, 0)}},
		{Given: []int{2}, On: 0, Branches: []dsl.Branch{br(0, 2, 0)}},
	}}
	got, want := Findings(p, testRel()), Program(p, testRel()).Findings
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Findings = %v\nReport.Findings = %v", got, want)
	}
}
