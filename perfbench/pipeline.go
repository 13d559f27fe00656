package main

import (
	"errors"
	"fmt"
	"time"

	"pdwqo"
	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/planverify"
	"pdwqo/internal/planverify/transval"
	"pdwqo/internal/sqlparser"
)

// compiled is the outcome of one layer-by-layer compilation.
type compiled struct {
	dsql    *dsql.Plan
	plan    *core.Plan
	regime  string
	tripped bool
	// wasted is the first lowering's time when the search budget trips
	// and its plan is thrown away.
	wasted time.Duration
	// counts are summed over every memo, XML document and enumeration
	// the compilation built; final holds the shipped lowering's figures.
	counts counts
	final  counts
}

// counts are a compilation's deterministic work counts.
type counts struct {
	xmlBytes, groups, exprs, considered, retained, steps int
}

// compileLayers runs the compile pipeline of pdwqo.DB.Optimize (no plan
// cache, default options plus searchBudget and Verify) one layer at a
// time, recording a span around each call. The spans of the query hang
// under one "compile" root.
func compileLayers(rec *recorder, qid string, shell *catalog.Shell, sql string, searchBudget int) (*compiled, error) {
	root := rec.begin(qid, "compile", -1)
	defer rec.end(root)
	timed := func(parent int, name string, call func() error) error {
		id := rec.begin(qid, name, parent)
		err := call()
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var sel *sqlparser.SelectStmt
	if err := timed(root, "sqlparser.parse", func() (err error) {
		sel, err = sqlparser.ParseSelect(sql)
		return err
	}); err != nil {
		return nil, err
	}
	b := algebra.NewBinder(shell)
	var bound, norm *algebra.Tree
	if err := timed(root, "algebra.bind", func() (err error) {
		bound, err = b.Bind(sel)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed(root, "normalize.normalize", func() (err error) {
		norm, err = normalize.New(b).Normalize(bound)
		return err
	}); err != nil {
		return nil, err
	}
	var m *memo.Memo
	if err := timed(root, "memo.optimize", func() (err error) {
		m, err = memo.OptimizeSeeded(shell, norm, memo.DefaultBudget)
		return err
	}); err != nil {
		return nil, err
	}

	c := &compiled{}
	model := cost.NewModel(shell.Topology.ComputeNodes, cost.DefaultLambda())
	// lower is the memo-XML round trip plus PDW-side enumeration.
	lower := func(m *memo.Memo, budget int) (*memoxml.Decoded, *core.Optimizer, *core.Plan, error) {
		lw := rec.begin(qid, "lower", root)
		defer rec.end(lw)
		c.final = counts{groups: m.NumGroups(), exprs: m.NumExprs()}
		var data []byte
		if err := timed(lw, "memoxml.encode", func() (err error) {
			data, err = memoxml.Encode(m)
			return err
		}); err != nil {
			return nil, nil, nil, err
		}
		c.final.xmlBytes = len(data)
		var dec *memoxml.Decoded
		if err := timed(lw, "memoxml.decode", func() (err error) {
			dec, err = memoxml.Decode(data, shell)
			return err
		}); err != nil {
			return nil, nil, nil, err
		}
		opt := core.New(dec, shell, model, core.Config{Mode: core.ModeFull, SearchBudget: budget})
		var plan *core.Plan
		err := timed(lw, "core.optimize", func() (err error) {
			plan, err = opt.Optimize()
			return err
		})
		c.counts.add(c.final)
		return dec, opt, plan, err
	}

	start := time.Now()
	dec, opt, plan, err := lower(m, searchBudget)
	if err != nil {
		var be *core.BudgetError
		if !errors.As(err, &be) {
			return nil, err
		}
		// The budget tripped: the shipped pipeline switches to the
		// greedy join order over a fixed memo and lowers again.
		c.tripped, c.regime, c.wasted = true, "greedy", time.Since(start)
		c.counts.considered += int(be.Considered)
		var ordered *algebra.Tree
		_ = timed(root, "normalize.greedy_order", func() error {
			ordered = normalize.GreedyJoinOrder(norm)
			return nil
		})
		if err := timed(root, "memo.optimize", func() (err error) {
			m, err = memo.OptimizeFixed(shell, ordered)
			return err
		}); err != nil {
			return nil, err
		}
		if dec, opt, plan, err = lower(m, 0); err != nil {
			return nil, err
		}
	} else if searchBudget > 0 {
		c.regime = "exhaustive"
	}
	c.final.considered, c.final.retained = plan.OptionsConsidered, plan.OptionsRetained
	c.counts.considered += plan.OptionsConsidered
	c.counts.retained += plan.OptionsRetained

	if err := timed(root, "dsql.generate", func() (err error) {
		c.dsql, err = dsql.Generate(plan, norm.OutputCols())
		return err
	}); err != nil {
		return nil, err
	}
	c.final.steps = len(c.dsql.Steps)
	c.counts.steps = c.final.steps
	c.plan = plan

	var rep *planverify.Report
	_ = timed(root, "planverify.check", func() error {
		rep = planverify.Check(planverify.Artifacts{
			Plan: plan, DSQL: c.dsql, Memo: dec, Shell: shell, Interesting: opt.Interesting,
		})
		return nil
	})
	_ = timed(root, "transval.check", func() error {
		rep.Violations = append(rep.Violations, transval.Check(plan, c.dsql, shell)...)
		return nil
	})
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return c, nil
}

func (c *counts) add(o counts) {
	c.xmlBytes += o.xmlBytes
	c.groups += o.groups
	c.exprs += o.exprs
	c.considered += o.considered
	c.retained += o.retained
	c.steps += o.steps
}

// sameAsShipped checks replica identity: the layer-by-layer compilation
// must produce the DSQL text, regime, cost and final work counts of the
// plan pdwqo.DB.Optimize ships. Otherwise the per-layer numbers would
// describe a different pipeline.
func (c *compiled) sameAsShipped(qp *pdwqo.QueryPlan) error {
	switch {
	case c.dsql.String() != qp.DSQL.String():
		return errors.New("DSQL text differs from db.Optimize")
	case c.regime != qp.Regime:
		return fmt.Errorf("regime %q, db.Optimize %q", c.regime, qp.Regime)
	case c.plan.TotalCost != qp.Cost():
		return fmt.Errorf("cost %v, db.Optimize %v", c.plan.TotalCost, qp.Cost())
	case c.final.xmlBytes != len(qp.MemoXML):
		return fmt.Errorf("memo XML %d bytes, db.Optimize %d", c.final.xmlBytes, len(qp.MemoXML))
	case c.final.groups != qp.Memo.NumGroups() || c.final.exprs != qp.Memo.NumExprs():
		return fmt.Errorf("memo %d groups/%d exprs, db.Optimize %d/%d",
			c.final.groups, c.final.exprs, qp.Memo.NumGroups(), qp.Memo.NumExprs())
	case c.final.considered != qp.Distributed.OptionsConsidered:
		return fmt.Errorf("%d options considered, db.Optimize %d", c.final.considered, qp.Distributed.OptionsConsidered)
	}
	return nil
}
