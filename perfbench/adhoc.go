package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pdwqo"
	"pdwqo/internal/tpch"
	"pdwqo/internal/types"
)

const (
	tpchNodes = 8
	// tpchDataSeed fixes the generated TPC-H database. The workload seed
	// orders the queries instead, so plan costs and reference results are
	// the same for every seed.
	tpchDataSeed = 42
	adhocSF      = 0.01
	adhocSetups  = 5
)

func tpchQueries() []namedQuery {
	var out []namedQuery
	for _, q := range tpch.Queries() {
		out = append(out, namedQuery{name: q.Name, sql: q.SQL})
	}
	return out
}

// runAdhoc is tpch-adhoc: one client in a closed loop issues the 22
// TPC-H queries per pass in a seeded order, each a cold compile
// (Verify on, no plan cache) followed by execution. The window is whole
// passes, at least one, until the run length has passed.
func runAdhoc(b *bench) error {
	queries := tpchQueries()
	db, setups, err := b.setupTPCH(adhocSF, adhocSetups, nil)
	if err != nil {
		return err
	}
	refs, err := buildReferences(func(int) *pdwqo.DB { return db }, queries)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	opts := pdwqo.Options{Verify: true}
	if b.trace {
		b.traceCompile(func() []compileJob {
			var block []compileJob
			for _, i := range rng.Perm(len(queries)) {
				block = append(block, compileJob{q: queries[i], db: db, execute: true, ref: refs[queries[i].name]})
			}
			return block
		}, opts)
		return nil
	}

	costs := map[string]float64{}
	var lat []time.Duration
	w := openWindow()
	for pass := 0; pass == 0 || time.Since(w.start) < b.seconds; pass++ {
		for _, i := range rng.Perm(len(queries)) {
			q := queries[i]
			b.attempted++
			settleHeap()
			start := time.Now()
			qp, err := db.Optimize(q.sql, opts)
			var res *pdwqo.Result
			if err == nil {
				res, err = db.ExecutePlan(qp)
			}
			lat = append(lat, time.Since(start))
			if err == nil {
				err = refs[q.name].check(res.Columns, res.Rows)
			}
			if err != nil {
				b.fail("%s: %v", q.name, err)
				continue
			}
			recordCost(costs, q.name, qp.Cost())
		}
	}
	ws := w.close()
	b.endToEnd(setups, lat, ws, costs)
	return nil
}

// recordCost keeps each distinct query's plan cost, which must repeat
// exactly whenever the query is compiled again.
func recordCost(costs map[string]float64, name string, c float64) {
	if prev, ok := costs[name]; ok && prev != c {
		fmt.Fprintf(os.Stderr, "perfbench: NONDETERMINISM %s: plan cost %v, earlier %v\n", name, c, prev)
	}
	costs[name] = c
}

// setupTPCH generates and opens the TPC-H database repeats times (each a
// full set-up: generation with per-node statistics, pdwqo.Open, then the
// optional warm-up) and keeps the last. It returns each set-up's time.
func (b *bench) setupTPCH(sf float64, repeats int, warm func(*pdwqo.DB) error) (*pdwqo.DB, []float64, error) {
	var (
		db                           *pdwqo.DB
		setups, gens, opens, warmups []float64
	)
	for i := 0; i < repeats; i++ {
		db = nil
		runtime.GC()
		t0 := time.Now()
		shell, data, err := tpch.BuildShell(sf, tpchNodes, tpchDataSeed)
		if err != nil {
			return nil, nil, fmt.Errorf("generate TPC-H: %w", err)
		}
		t1 := time.Now()
		db, err = pdwqo.Open(shell, map[string][]types.Row(data))
		if err != nil {
			return nil, nil, fmt.Errorf("open TPC-H: %w", err)
		}
		t2 := time.Now()
		if warm != nil {
			if err := warm(db); err != nil {
				return nil, nil, err
			}
		}
		t3 := time.Now()
		setups = append(setups, t3.Sub(t0).Seconds())
		gens = append(gens, t1.Sub(t0).Seconds())
		opens = append(opens, t2.Sub(t1).Seconds())
		warmups = append(warmups, t3.Sub(t2).Seconds())
	}
	b.facts["sf"] = sf
	b.facts["nodes"] = tpchNodes
	b.facts["data_seed"] = tpchDataSeed
	b.facts["setups"] = repeats
	if b.trace {
		b.set("tpch.generate_s", median(gens), "s")
		b.set("pdwqo.open_s", median(opens), "s")
		if warm != nil {
			b.set("plancache.warm_s", median(warmups), "s")
		}
	}
	return db, setups, nil
}
