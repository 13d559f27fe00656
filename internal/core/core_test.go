package core

import (
	"slices"
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/cost"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
)

var (
	sharedShell *catalog.Shell
)

func shell(t *testing.T) *catalog.Shell {
	t.Helper()
	if sharedShell == nil {
		s, _, err := tpch.BuildShell(0.002, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		sharedShell = s
	}
	return sharedShell
}

// plan runs the full pipeline: parse → bind → normalize → serial memo →
// XML → PDW optimize.
func plan(t *testing.T, s *catalog.Shell, sql string, cfg Config) *Plan {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(s)
	tree, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(tree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.Optimize(s, norm, memo.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	data, err := memoxml.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := memoxml.Decode(data, s)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(s.Topology.ComputeNodes, cost.DefaultLambda())
	p, err := New(dec, s, model, cfg).Optimize()
	if err != nil {
		t.Fatalf("PDW optimize %q: %v", sql, err)
	}
	return p
}

// moves extracts the plan's data movements in pre-order.
func moves(p *Plan) []MoveSpec {
	var out []MoveSpec
	p.Root.Visit(func(o *Option) {
		if o.Move != nil {
			out = append(out, *o.Move)
		}
	})
	return out
}

// paperFigure3Query is the query of the paper's Figure 3 (same join as
// the §2.4 DSQL example, SELECT * form).
const paperFigure3Query = `SELECT * FROM CUSTOMER C, ORDERS O
	WHERE C.c_custkey = O.o_custkey AND O.o_totalprice > 1000`

// paperSection24Query is the exact query of the paper's §2.4 DSQL example.
const paperSection24Query = `SELECT c_custkey, o_orderdate FROM Orders, Customer
	WHERE o_custkey = c_custkey AND o_totalprice > 100`

func TestE2Section24ShuffleOrders(t *testing.T) {
	// Customer is hashed on c_custkey (the join column); Orders on
	// o_orderkey (not the join column). With the full row widths of the
	// Figure 3 query, the paper's plan emerges: shuffle the filtered
	// Orders on o_custkey, then join collocated — exactly one move, a
	// shuffle, and it must be on the orders side.
	p := plan(t, shell(t), paperFigure3Query, Config{})
	ms := moves(p)
	if len(ms) != 1 || ms[0].Kind != cost.Shuffle {
		t.Fatalf("want exactly one SHUFFLE, got %v\n%s", ms, p.Root)
	}
	// The shuffled subtree must scan orders, not customer.
	var shuffled *Option
	p.Root.Visit(func(o *Option) {
		if o.Move != nil && o.Move.Kind == cost.Shuffle {
			shuffled = o.Inputs[0]
		}
	})
	foundOrders := false
	shuffled.Visit(func(o *Option) {
		if g, ok := o.Op.(*algebra.Get); ok {
			if g.Table.Name == "orders" {
				foundOrders = true
			}
			if g.Table.Name == "customer" {
				t.Error("customer must not move: it is already on the join column")
			}
		}
	})
	if !foundOrders {
		t.Errorf("the orders side must be the one shuffled:\n%s", p.Root)
	}
	// The filter must be applied below the shuffle (ship less data).
	foundFilter := false
	shuffled.Visit(func(o *Option) {
		if _, ok := o.Op.(*algebra.Select); ok {
			foundFilter = true
		}
	})
	if !foundFilter {
		t.Errorf("o_totalprice filter should run before the shuffle:\n%s", p.Root)
	}
}

func TestReplicatedJoinNeedsNoMoves(t *testing.T) {
	p := plan(t, shell(t), `SELECT c_name, n_name FROM customer, nation
		WHERE c_nationkey = n_nationkey`, Config{})
	if ms := moves(p); len(ms) != 0 {
		t.Errorf("replicated nation joins in place, got moves %v\n%s", ms, p.Root)
	}
	if p.Root.DMSCost != 0 {
		t.Errorf("plan DMS cost should be 0, got %v", p.Root.DMSCost)
	}
}

func TestCollocatedJoinNeedsNoMoves(t *testing.T) {
	// orders ⋈ lineitem on the shared hash column (orderkey).
	p := plan(t, shell(t), `SELECT o_orderdate FROM orders, lineitem
		WHERE o_orderkey = l_orderkey`, Config{})
	if ms := moves(p); len(ms) != 0 {
		t.Errorf("collocated join must not move data: %v\n%s", ms, p.Root)
	}
}

func TestE3SerialVsParallelJoinOrder(t *testing.T) {
	// The §3.2 example: joining customer, orders, lineitem on custkey and
	// orderkey. The collocated orders⋈lineitem join must happen first with
	// a single shuffle of its (aggregated-size) result or of customer —
	// never a shuffle of both orders and lineitem.
	sql := `SELECT c_name, l_quantity FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey`
	full := plan(t, shell(t), sql, Config{})
	baseline := plan(t, shell(t), sql, Config{Mode: ModeSerialBaseline})
	if full.TotalCost > baseline.TotalCost {
		t.Errorf("full search (%v) must not lose to serial baseline (%v)",
			full.TotalCost, baseline.TotalCost)
	}
	// The full plan must exploit the appliance layout: either a collocated
	// orders⋈lineitem join (the paper's preferred shape) or an equivalent
	// single cheap move (broadcasting the small customer side). It must
	// never shuffle both large tables.
	ms := moves(full)
	if len(ms) > 1 {
		t.Errorf("expected at most one move, got %v:\n%s", ms, full.Root)
	}
	// The two large tables must never move: their shared partitioning on
	// orderkey is exploited by a collocated join.
	full.Root.Visit(func(o *Option) {
		if o.Move == nil {
			return
		}
		o.Inputs[0].Visit(func(n *Option) {
			if g, ok := n.Op.(*algebra.Get); ok && (g.Table.Name == "orders" || g.Table.Name == "lineitem") {
				t.Errorf("%s must not move:\n%s", g.Table.Name, full.Root)
			}
		})
	})
}

func TestPartialFinalAggregation(t *testing.T) {
	// Orders is hashed on o_orderkey; grouping by o_custkey requires
	// movement. The partial/final split shrinks the shuffle.
	sql := `SELECT o_custkey, COUNT(*) AS cnt, SUM(o_totalprice) AS total
		FROM orders GROUP BY o_custkey`
	p := plan(t, shell(t), sql, Config{})
	var phases []algebra.AggPhase
	p.Root.Visit(func(o *Option) {
		if gb, ok := o.Op.(*algebra.GroupBy); ok {
			phases = append(phases, gb.Phase)
		}
	})
	hasLocal, hasGlobal := false, false
	for _, ph := range phases {
		if ph == algebra.AggPartial {
			hasLocal = true
		}
		if ph == algebra.AggFinal {
			hasGlobal = true
		}
	}
	if !hasLocal || !hasGlobal {
		t.Errorf("expected partial/final split, phases %v:\n%s", phases, p.Root)
	}
	// Ablation: disabling the split must not produce a cheaper plan.
	off := plan(t, shell(t), sql, Config{DisableAggSplit: true})
	if off.TotalCost < p.TotalCost {
		t.Errorf("split off (%v) beat on (%v)", off.TotalCost, p.TotalCost)
	}
	off.Root.Visit(func(o *Option) {
		if gb, ok := o.Op.(*algebra.GroupBy); ok && gb.Phase != algebra.AggComplete {
			t.Error("ablation must not contain split aggregates")
		}
	})
}

func TestScalarAggregateGathersPartials(t *testing.T) {
	p := plan(t, shell(t), `SELECT SUM(l_quantity) FROM lineitem`, Config{})
	if p.Root.Dist.Kind != DistSingle {
		t.Errorf("scalar aggregate ends on the control node, got %s", p.Root.Dist)
	}
	ms := moves(p)
	if len(ms) != 1 || ms[0].Kind != cost.PartitionMove {
		t.Errorf("expected a single partition move of partials: %v\n%s", ms, p.Root)
	}
	// The gathered relation must be the tiny local-aggregate output (N
	// rows), not the full lineitem table.
	p.Root.Visit(func(o *Option) {
		if o.Move != nil && o.Move.Kind == cost.PartitionMove {
			if o.Rows > float64(8*2) {
				t.Errorf("partition move carries %v rows; partials expected", o.Rows)
			}
		}
	})
}

func TestBroadcastSmallSideChosen(t *testing.T) {
	// part filtered by a selective LIKE joins lineitem on l_partkey
	// (lineitem hashed on l_orderkey): broadcasting the small filtered
	// part must beat shuffling all of lineitem (the paper's Q20 step 0
	// decision).
	p := plan(t, shell(t), `SELECT l_quantity FROM part, lineitem
		WHERE p_partkey = l_partkey AND p_name LIKE 'forest%'`, Config{})
	ms := moves(p)
	hasBroadcast := false
	for _, m := range ms {
		if m.Kind == cost.Broadcast {
			hasBroadcast = true
		}
		if m.Kind == cost.Shuffle {
			// A shuffle of lineitem would be the expensive alternative.
			t.Errorf("did not expect a shuffle: %v\n%s", ms, p.Root)
		}
	}
	if !hasBroadcast {
		t.Errorf("expected broadcast of filtered part: %v\n%s", ms, p.Root)
	}
}

func TestSerialBaselineNeverCheaper(t *testing.T) {
	queries := []string{
		paperSection24Query,
		`SELECT c_name, l_quantity FROM customer, orders, lineitem
			WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey`,
		`SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey`,
		`SELECT n_name, COUNT(*) FROM customer, nation WHERE c_nationkey = n_nationkey GROUP BY n_name`,
	}
	for _, sql := range queries {
		full := plan(t, shell(t), sql, Config{})
		base := plan(t, shell(t), sql, Config{Mode: ModeSerialBaseline})
		if full.TotalCost > base.TotalCost+1e-9 {
			t.Errorf("full (%v) worse than baseline (%v) for %q", full.TotalCost, base.TotalCost, sql)
		}
	}
}

func TestInterestingRetentionAblation(t *testing.T) {
	sql := `SELECT c_name, l_quantity FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey`
	full := plan(t, shell(t), sql, Config{})
	ablated := plan(t, shell(t), sql, Config{DisableInterestingRetention: true})
	if full.TotalCost > ablated.TotalCost+1e-9 {
		t.Errorf("retention on (%v) must not lose to off (%v)", full.TotalCost, ablated.TotalCost)
	}
	if ablated.OptionsRetained >= full.OptionsRetained {
		t.Errorf("ablation should retain fewer options: %d vs %d",
			ablated.OptionsRetained, full.OptionsRetained)
	}
}

func TestPlanDeterminism(t *testing.T) {
	sql := `SELECT c_name, l_quantity FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey`
	a := plan(t, shell(t), sql, Config{})
	b := plan(t, shell(t), sql, Config{})
	if a.Root.String() != b.Root.String() {
		t.Errorf("plans differ across runs:\n%s\nvs\n%s", a.Root, b.Root)
	}
	if a.TotalCost != b.TotalCost {
		t.Error("costs differ across runs")
	}
}

func TestQ20PlanShape(t *testing.T) {
	// The paper's Figure 7 walk-through. Expectations on plan shape:
	//  - part is broadcast (not lineitem shuffled),
	//  - a partial/final aggregation pair exists,
	//  - a shuffle lands on an aggregation key,
	//  - supplier and nation never move (replicated).
	q, _ := tpch.Get("q20")
	p := plan(t, shell(t), q.SQL, Config{})
	ms := moves(p)
	counts := map[cost.MoveKind]int{}
	for _, m := range ms {
		counts[m.Kind]++
	}
	if counts[cost.Broadcast] < 1 {
		t.Errorf("expected broadcast of filtered part, moves=%v\n%s", ms, p.Root)
	}
	if counts[cost.Shuffle] < 1 {
		t.Errorf("expected at least one shuffle, moves=%v\n%s", ms, p.Root)
	}
	hasLocal, hasGlobal := false, false
	p.Root.Visit(func(o *Option) {
		if gb, ok := o.Op.(*algebra.GroupBy); ok {
			switch gb.Phase {
			case algebra.AggPartial:
				hasLocal = true
			case algebra.AggFinal:
				hasGlobal = true
			}
		}
		if g, ok := o.Op.(*algebra.Get); ok {
			_ = g
		}
	})
	if !hasLocal || !hasGlobal {
		t.Errorf("expected partial/final aggregation in Q20 plan:\n%s", p.Root)
	}
	// supplier and nation are replicated: no move may sit above their scans.
	p.Root.Visit(func(o *Option) {
		if o.Move == nil {
			return
		}
		o.Inputs[0].Visit(func(n *Option) {
			if g, ok := n.Op.(*algebra.Get); ok {
				if g.Table.Name == "supplier" || g.Table.Name == "nation" {
					// Moves above subtrees containing replicated tables are
					// fine only if the subtree also contains hashed tables.
					hasHashed := false
					o.Inputs[0].Visit(func(x *Option) {
						if gg, ok := x.Op.(*algebra.Get); ok && gg.Table.Dist.Kind == catalog.DistHash {
							hasHashed = true
						}
					})
					if !hasHashed {
						t.Errorf("replicated %s should not move:\n%s", g.Table.Name, p.Root)
					}
				}
			}
		})
	})
}

func TestAllTPCHQueriesPlan(t *testing.T) {
	s := shell(t)
	for _, q := range tpch.Queries() {
		p := plan(t, s, q.SQL, Config{})
		if p.Root == nil || p.TotalCost < 0 {
			t.Errorf("%s: bad plan", q.Name)
		}
		base := plan(t, s, q.SQL, Config{Mode: ModeSerialBaseline})
		if p.TotalCost > base.TotalCost+1e-9 {
			t.Errorf("%s: full (%v) worse than baseline (%v)", q.Name, p.TotalCost, base.TotalCost)
		}
	}
}

func TestInterestingColumnsDerived(t *testing.T) {
	s := shell(t)
	sel, err := sqlparser.ParseSelect(paperFigure3Query)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(s)
	tree, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(tree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.Optimize(s, norm, memo.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	data, err := memoxml.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := memoxml.Decode(data, s)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(8, cost.DefaultLambda())
	opt := New(dec, s, model, Config{})
	if _, err := opt.Optimize(); err != nil {
		t.Fatal(err)
	}
	// Some group must find the join columns interesting.
	anyInteresting := false
	for id := range dec.Groups {
		if len(opt.Interesting(id)) > 0 {
			anyInteresting = true
		}
	}
	if !anyInteresting {
		t.Error("no interesting columns derived")
	}
}

func TestMoveCountsHelper(t *testing.T) {
	p := plan(t, shell(t), paperFigure3Query, Config{})
	counts := p.Root.CountMoves()
	if counts[cost.Shuffle] != 1 {
		t.Errorf("CountMoves: %v", counts)
	}
}

func TestPlanStringRendering(t *testing.T) {
	p := plan(t, shell(t), paperFigure3Query, Config{})
	s := p.Root.String()
	if !strings.Contains(s, "SHUFFLE") || !strings.Contains(s, "hash(") {
		t.Errorf("plan rendering:\n%s", s)
	}
}

func TestSeedingHelpsUnderTightBudget(t *testing.T) {
	// §3.1: with the optimizer timeout biting early, the distribution-
	// aware seed must not lose to the syntax-order seed, and both converge
	// to the same plan when exploration completes.
	s := shell(t)
	planSeeded := func(q string, budget int, seed bool) float64 {
		t.Helper()
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		b := algebra.NewBinder(s)
		tree, err := b.Bind(sel)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := normalize.New(b).Normalize(tree)
		if err != nil {
			t.Fatal(err)
		}
		var seeds []*algebra.Tree
		if seed {
			seeds = append(seeds, normalize.GreedyJoinOrder(norm))
		}
		m, err := memo.OptimizeSeeded(s, norm, budget, seeds...)
		if err != nil {
			t.Fatal(err)
		}
		data, err := memoxml.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := memoxml.Decode(data, s)
		if err != nil {
			t.Fatal(err)
		}
		model := cost.NewModel(s.Topology.ComputeNodes, cost.DefaultLambda())
		p, err := New(dec, s, model, Config{}).Optimize()
		if err != nil {
			t.Fatal(err)
		}
		return p.TotalCost
	}
	for _, tc := range []struct {
		name string
		q    string
		// halved lists the budgets at which the seed must at least halve
		// the unseeded plan cost.
		halved []int
	}{
		{name: "q05-join-graph", q: `SELECT n_name, SUM(l_extendedprice) AS rev
			FROM customer, orders, lineitem, supplier, nation, region
			WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
			  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
			  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
			GROUP BY n_name`},
		// The E10 query: q05 with a scrambled FROM order, so the
		// normalized initial plan starts from cross joins and a starved
		// search depends on the seed to reach a collocated order.
		{name: "e10-q05-scrambled", q: `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
			FROM customer, region, lineitem, supplier, orders, nation
			WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
			  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
			  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
			  AND r_name = 'ASIA'
			  AND o_orderdate >= '1994-01-01'
			  AND o_orderdate < DATEADD(year, 1, '1994-01-01')
			GROUP BY n_name`, halved: []int{50, 200}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, budget := range []int{50, 60, 200, 300, 3000} {
				un, se := planSeeded(tc.q, budget, false), planSeeded(tc.q, budget, true)
				if se > un*1.001 {
					t.Errorf("budget %d: seeded %v worse than unseeded %v", budget, se, un)
				}
				if slices.Contains(tc.halved, budget) && se > un/2 {
					t.Errorf("budget %d: seeded %v not at most half of unseeded %v", budget, se, un)
				}
			}
		})
	}
}
