package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pdwqo"
	"pdwqo/internal/difftest"
	"pdwqo/internal/qgen"
)

const (
	largeJoinMaxRelations = 48
	largeJoinSearchBudget = 20000
	// Plans of queries up to this many relations are also executed.
	largeJoinMaxExec = 10
	largeJoinSetups  = 3
)

// largeJoinSpecs is the checked-in qgen corpus up to 48 relations (4
// topologies × 7 sizes). The workload seed orders the queries but does
// not regenerate them: different join graphs per seed would move the
// plan-cost geomean between seeds by far more than any bound.
func largeJoinSpecs() []qgen.Spec {
	var out []qgen.Spec
	for _, s := range qgen.Corpus() {
		if s.Relations <= largeJoinMaxRelations {
			out = append(out, s)
		}
	}
	return out
}

type largeJoinQuery struct {
	q   namedQuery
	rel int
	db  *pdwqo.DB
}

// runLargeJoin is largejoin-plan: one client in a closed loop compiles
// the 28 corpus join queries per pass in a seeded order, with
// SearchBudget 20000 and Verify on, and executes the plans of queries
// of up to 10 relations. Each query has its own database. The window is
// whole passes, at least one, until the run length has passed.
func runLargeJoin(b *bench) error {
	specs := largeJoinSpecs()
	queries, setups, err := b.setupLargeJoin(specs)
	if err != nil {
		return err
	}
	var executed []namedQuery
	var execDBs []*pdwqo.DB
	for _, lq := range queries {
		if lq.rel <= largeJoinMaxExec {
			executed = append(executed, lq.q)
			execDBs = append(execDBs, lq.db)
		}
	}
	refs, err := buildReferences(func(i int) *pdwqo.DB { return execDBs[i] }, executed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	opts := pdwqo.Options{SearchBudget: largeJoinSearchBudget, Verify: true}
	if b.trace {
		b.traceCompile(latinBlocks(rng, queries, refs), opts)
		return nil
	}

	costs := map[string]float64{}
	var lat []time.Duration
	w := openWindow()
	for pass := 0; pass == 0 || time.Since(w.start) < b.seconds; pass++ {
		for _, i := range rng.Perm(len(queries)) {
			lq := queries[i]
			b.attempted++
			settleHeap()
			start := time.Now()
			qp, err := lq.db.Optimize(lq.q.sql, opts)
			var res *pdwqo.Result
			if err == nil && lq.rel <= largeJoinMaxExec {
				res, err = lq.db.ExecutePlan(qp)
			}
			lat = append(lat, time.Since(start))
			if err == nil && res != nil {
				err = refs[lq.q.name].check(res.Columns, res.Rows)
			}
			if err != nil {
				b.fail("%s: %v", lq.q.name, err)
				continue
			}
			recordCost(costs, lq.q.name, qp.Cost())
		}
	}
	ws := w.close()
	b.endToEnd(setups, lat, ws, costs)
	return nil
}

// latinBlocks feeds the traced run blocks of 7 queries: each block holds
// every size once, and every 4 blocks hold every (topology, size) pair
// once, so a window of whole blocks is balanced by size.
func latinBlocks(rng *rand.Rand, queries []largeJoinQuery, refs map[string]*reference) func() []compileJob {
	topos, sizes := len(qgen.Topologies()), len(queries)/len(qgen.Topologies())
	var offsets []int
	return func() []compileJob {
		if len(offsets) == 0 {
			offsets = rng.Perm(topos)
		}
		off := offsets[0]
		offsets = offsets[1:]
		var block []compileJob
		for _, si := range rng.Perm(sizes) {
			lq := queries[((off+si)%topos)*sizes+si]
			block = append(block, compileJob{
				q: lq.q, db: lq.db, execute: lq.rel <= largeJoinMaxExec, ref: refs[lq.q.name],
			})
		}
		return block
	}
}

// setupLargeJoin generates every query and opens its database,
// largeJoinSetups times, and keeps the last set.
func (b *bench) setupLargeJoin(specs []qgen.Spec) ([]largeJoinQuery, []float64, error) {
	var (
		queries             []largeJoinQuery
		setups, gens, opens []float64
	)
	for r := 0; r < largeJoinSetups; r++ {
		queries = nil
		runtime.GC()
		var gen, open time.Duration
		for _, spec := range specs {
			t0 := time.Now()
			q, err := qgen.Generate(spec)
			if err != nil {
				return nil, nil, fmt.Errorf("generate %s: %w", spec.Name(), err)
			}
			t1 := time.Now()
			db, err := difftest.OpenQGen(q)
			if err != nil {
				return nil, nil, fmt.Errorf("open %s: %w", spec.Name(), err)
			}
			gen += t1.Sub(t0)
			open += time.Since(t1)
			queries = append(queries, largeJoinQuery{q: namedQuery{name: q.Name, sql: q.SQL}, rel: spec.Relations, db: db})
		}
		gens = append(gens, gen.Seconds())
		opens = append(opens, open.Seconds())
		setups = append(setups, (gen + open).Seconds())
	}
	b.facts["queries"] = len(specs)
	b.facts["search_budget"] = largeJoinSearchBudget
	b.facts["setups"] = largeJoinSetups
	if b.trace {
		b.set("qgen.generate_s", median(gens), "s")
		b.set("pdwqo.open_s", median(opens), "s")
	}
	return queries, setups, nil
}
