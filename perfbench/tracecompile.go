package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"pdwqo"
	"pdwqo/internal/algebra"
	"pdwqo/internal/cost"
	"pdwqo/internal/engine"
)

// compileJob is one query of a compile workload's traced run.
type compileJob struct {
	q       namedQuery
	db      *pdwqo.DB
	execute bool
	ref     *reference
}

// compileTotals accumulates the traced run of a compile workload.
type compileTotals struct {
	compiles, executed int
	shipped, wasted    time.Duration
	moveStep, retStep  time.Duration
	localRows          int64
	localBatches       int64
	maxSkew            float64

	// The deterministic counts are reported over the first block, which
	// every run of one seed processes identically.
	first        counts
	firstN       int
	firstTripped int
	firstDMS     int64
	firstExec    int

	seen   map[string]string
	nondet int
}

// traceCompile is the traced run of tpch-adhoc and largejoin-plan. Each
// query is compiled layer by layer (compileLayers), compiled again by
// pdwqo.DB.Optimize to check replica identity and to measure tracing
// overhead, and, if the job says so, its DSQL is executed on the
// appliance and checked against the serial reference. Blocks of jobs
// come from next; the window is whole blocks, at least one, until the
// run length has passed.
func (b *bench) traceCompile(next func() []compileJob, opts pdwqo.Options) {
	t := &compileTotals{seen: map[string]string{}}
	w := openWindow()
	for block := 0; block == 0 || time.Since(w.start) < b.seconds; block++ {
		for _, j := range next() {
			qid := fmt.Sprintf("%d/%s", b.attempted, j.q.name)
			b.attempted++
			if err := b.traceOne(t, qid, j, block == 0, opts); err != nil {
				b.fail("%s: %v", j.q.name, err)
			}
		}
	}
	ws := w.close()
	b.compileLayerMetrics(t, ws)
}

func (b *bench) traceOne(t *compileTotals, qid string, j compileJob, first bool, opts pdwqo.Options) error {
	c, err := compileLayers(b.spans, qid, j.db.Shell(), j.q.sql, opts.SearchBudget)
	if err != nil {
		return err
	}
	t.compiles++
	t.wasted += c.wasted
	start := time.Now()
	qp, err := j.db.Optimize(j.q.sql, opts)
	t.shipped += time.Since(start)
	if err != nil {
		return fmt.Errorf("db.Optimize: %w", err)
	}
	if err := c.sameAsShipped(qp); err != nil {
		return fmt.Errorf("replica identity: %w", err)
	}
	var dms int64
	if j.execute {
		if dms, err = b.traceExecute(t, qid, j, c); err != nil {
			return err
		}
	}
	key := fmt.Sprintf("%+v regime=%s cost=%v dms=%d", c.counts, c.regime, c.plan.TotalCost, dms)
	if prev, ok := t.seen[j.q.name]; ok && prev != key {
		t.nondet++
		fmt.Fprintf(os.Stderr, "perfbench: NONDETERMINISM %s: %s, earlier %s\n", j.q.name, key, prev)
	}
	t.seen[j.q.name] = key
	if first {
		t.first.add(c.counts)
		t.firstN++
		if c.tripped {
			t.firstTripped++
		}
		if j.execute {
			t.firstDMS += dms
			t.firstExec++
		}
	}
	return nil
}

// traceExecute runs the replica's DSQL on the appliance (with the
// appliance tracer on, which makes the engine count node-local rows and
// batches), checks the rows, and folds the step metrics into t. It
// returns the DMS bytes the plan moved.
func (b *bench) traceExecute(t *compileTotals, qid string, j compileJob, c *compiled) (int64, error) {
	app := j.db.Appliance()
	n0 := app.Metrics.StepCount()
	j.db.SetTracer(pdwqo.NewTracer())
	id := b.spans.begin(qid, "engine.execute", -1)
	res, err := app.ExecuteContext(context.Background(), c.dsql)
	b.spans.end(id)
	j.db.SetTracer(nil)
	if err != nil {
		return 0, fmt.Errorf("execute: %w", err)
	}
	if err := j.ref.check(columnNames(res.Cols), res.Rows); err != nil {
		return 0, err
	}
	t.executed++
	var dms int64
	for _, s := range app.Metrics.Snapshot()[n0:] {
		t.localRows += s.LocalRows
		t.localBatches += s.LocalBatches
		if !s.IsMove {
			t.retStep += s.Duration
			continue
		}
		t.moveStep += s.Duration
		dms += s.Bytes
		if skew := shuffleSkew(s, len(app.Compute)); skew > t.maxSkew {
			t.maxSkew = skew
		}
	}
	return dms, nil
}

// shuffleSkew is a shuffle's busiest destination share relative to the
// uniform share (1 = perfectly even); other steps report 0.
func shuffleSkew(s engine.StepMetric, nodes int) float64 {
	if !s.IsMove || s.Move != cost.Shuffle || s.Bytes == 0 {
		return 0
	}
	return float64(s.MaxNodeBytes) * float64(nodes) / float64(s.Bytes)
}

func columnNames(cols []algebra.ColumnMeta) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// compileLayerMetrics turns the spans and totals of a traced compile
// run into the per-layer metrics. Times are means per compiled (or
// executed) query; counts are means per query of the first block.
func (b *bench) compileLayerMetrics(t *compileTotals, ws windowStats) {
	self := b.spans.selfTimes()
	perCompile := func(d time.Duration) float64 { return millis(d) / float64(t.compiles) }
	for _, name := range []string{
		"sqlparser.parse", "algebra.bind", "normalize.normalize", "normalize.greedy_order",
		"memo.optimize", "memoxml.encode", "memoxml.decode", "core.optimize",
		"dsql.generate", "planverify.check", "transval.check",
	} {
		b.set(name+"_ms", perCompile(self[name]), "ms")
	}
	compile := b.spans.total("compile")
	b.set("memoxml.share_pct", 100*float64(self["memoxml.encode"]+self["memoxml.decode"])/float64(compile), "%")
	b.set("core.wasted_lowering_ms", perCompile(t.wasted), "ms")
	b.set("trace.overhead_pct", 100*(float64(compile)-float64(t.shipped))/float64(t.shipped), "%")

	n := float64(t.firstN)
	b.set("memoxml.bytes", float64(t.first.xmlBytes)/n, "bytes")
	b.set("memo.groups", float64(t.first.groups)/n, "count")
	b.set("memo.exprs", float64(t.first.exprs)/n, "count")
	b.set("core.options_considered", float64(t.first.considered)/n, "count")
	b.set("core.options_retained", float64(t.first.retained)/n, "count")
	b.set("core.fallback_ratio", float64(t.firstTripped)/n, "ratio")
	b.set("dsql.steps", float64(t.first.steps)/n, "count")
	b.set("determinism.mismatches", float64(t.nondet), "count")

	if t.executed > 0 {
		e := float64(t.executed)
		b.set("engine.execute_ms", millis(self["engine.execute"])/e, "ms")
		b.set("engine.move_step_ms", millis(t.moveStep)/e, "ms")
		b.set("engine.return_step_ms", millis(t.retStep)/e, "ms")
		b.set("engine.max_node_skew", t.maxSkew, "ratio")
		b.set("exec.local_rows", float64(t.localRows)/e, "count")
		b.set("exec.local_batches", float64(t.localBatches)/e, "count")
	}
	if t.firstExec > 0 {
		b.set("engine.dms_mb", float64(t.firstDMS)/1e6/float64(t.firstExec), "MB")
	}
	b.runtimeLayer(ws, b.attempted)
	b.facts["samples"] = b.attempted
	b.facts["window_s"] = ws.elapsed.Seconds()
}
