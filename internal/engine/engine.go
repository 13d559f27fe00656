// Package engine simulates the PDW appliance (paper §2.1–§2.4): a control
// node plus N compute nodes, each owning a node-local database instance and
// a DMS endpoint. DSQL plans execute exactly as described in the paper —
// steps run serially; each step ships a SQL *string* to the participating
// nodes, whose local engines parse and execute it themselves, concurrently
// across nodes; DMS operations route the resulting rows into temp tables;
// the final step streams rows back to the client through the control node.
//
// Node-level work inside one step fans out over a bounded worker pool
// (Appliance.Parallelism; default GOMAXPROCS). Parallelism == 1 is the
// strictly serial reference path: the differential harness
// (internal/difftest) certifies that both paths produce byte-identical
// results for every query.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/exec"
	"pdwqo/internal/normalize"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/storage"
	"pdwqo/internal/trace"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// Node is one appliance node: the control node or a compute node.
type Node struct {
	ID        int
	IsControl bool
	DB        *storage.DB
}

// StepMetric records one executed step for calibration and experiments.
type StepMetric struct {
	// StepID is the DSQL step that produced this measurement, so EXPLAIN
	// ANALYZE can line actuals up against the optimizer's estimates.
	StepID    int
	Move      cost.MoveKind
	IsMove    bool
	Rows      int64
	Bytes     int64
	HashedRow int64 // rows that went through hash routing
	// MaxNodeBytes is the largest per-destination-node byte share: under
	// the uniformity assumption it is ≈ Bytes/N for shuffles; skewed keys
	// push it toward Bytes (E13).
	MaxNodeBytes int64
	Duration     time.Duration
	// Attempts is how many executions the step took to succeed (1 = no
	// retries fired).
	Attempts int
	// LocalOps/LocalRows tally the node-local evaluation work behind the
	// step (operator nodes run and rows they produced, summed over the
	// source nodes). Collected only while tracing, zero otherwise.
	LocalOps  int64
	LocalRows int64
	// LocalBatches counts the column batches the vectorized executor
	// emitted for the step (zero under the row engine or untraced).
	LocalBatches int64
}

// Metrics accumulates execution measurements. The step slice is private:
// it is appended concurrently with reader access, so every consumer goes
// through the locked accessors (Snapshot, StepCount, TotalBytesMoved) —
// an unlocked read of the slice would race with execution.
type Metrics struct {
	mu    sync.Mutex
	steps []StepMetric
	// retries counts step attempts beyond the first; faults counts
	// injected faults that fired. Both live under mu — fault sites run
	// concurrently on the worker pool.
	retries int64
	faults  int64
}

func (m *Metrics) add(s StepMetric) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps = append(m.steps, s)
}

func (m *Metrics) addRetry() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retries++
}

func (m *Metrics) addFault() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults++
}

// RetryCount returns how many step re-executions the retry layer issued.
func (m *Metrics) RetryCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retries
}

// FaultCount returns how many injected faults fired on this appliance.
func (m *Metrics) FaultCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.faults
}

// TotalBytesMoved sums DMS bytes across steps.
func (m *Metrics) TotalBytesMoved() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, s := range m.steps {
		if s.IsMove {
			n += s.Bytes
		}
	}
	return n
}

// StepCount returns the number of recorded steps under the lock; safe to
// call while queries execute concurrently.
func (m *Metrics) StepCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.steps)
}

// Snapshot returns a copy of the recorded steps. Callers observing metrics
// while the appliance executes (experiment harnesses, monitors, EXPLAIN
// ANALYZE) must use this: the slice is appended under the mutex, and an
// unlocked read races with execution.
func (m *Metrics) Snapshot() []StepMetric {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]StepMetric(nil), m.steps...)
}

// Export feeds the accumulated totals into a tracer counter registry (the
// observability layer's bridge from engine measurements to exported
// counters). Nil-safe on the registry side.
func (m *Metrics) Export(reg *trace.Registry) {
	reg.Set("exec.steps", int64(m.StepCount()))
	reg.Set("exec.bytes_moved", m.TotalBytesMoved())
	reg.Set("exec.retries", m.RetryCount())
	reg.Set("exec.faults", m.FaultCount())
}

// Appliance is the simulated PDW box.
type Appliance struct {
	Shell   *catalog.Shell
	Control *Node
	Compute []*Node
	Metrics Metrics

	// Parallelism bounds the worker pool that fans node-local work out
	// within one step: 0 means GOMAXPROCS, 1 means strictly serial, n > 1
	// caps concurrent node tasks at n. Steps themselves always run
	// serially (paper §2.4).
	Parallelism int
	// NodeLatency simulates the control→compute dispatch round trip paid
	// once per node per step (network hop + remote statement setup). The
	// default 0 keeps tests exact; experiments set it to make node-overlap
	// speedups observable regardless of host core count.
	NodeLatency time.Duration

	// MaxRetries is how many times a failed idempotent step is re-executed
	// after its partial temp table is cleaned up. 0 disables retries.
	// Non-idempotent steps (Return) and deterministic failures (exec
	// errors) never retry regardless.
	MaxRetries int
	// StepTimeout bounds each step attempt; the attempt's context is
	// cancelled at the deadline and the failure classifies as
	// ErrKindTimeout (retryable). 0 disables the bound.
	StepTimeout time.Duration
	// RetryBackoff is the delay before the first retry; it doubles per
	// subsequent retry, capped at maxRetryBackoff. 0 means defaultBackoff.
	RetryBackoff time.Duration
	// Faults is the active fault-injection plan; nil injects nothing.
	Faults *FaultPlan

	// RowExec selects the row-at-a-time executor for node-local step
	// evaluation instead of the default vectorized engine. Both engines
	// honor the same DSQL step contract and produce byte-identical
	// relations (certified by internal/difftest); the row engine remains
	// as the ablation arm and differential reference.
	RowExec bool

	// Tracer records per-step execution spans (payload: the step's
	// StepMetric) and feeds the exec.* counters. Nil disables tracing at
	// zero cost on the execution path.
	Tracer *trace.Tracer

	// sleep waits between retry attempts; tests swap in a fake clock so
	// backoff arithmetic is assertable without real time passing.
	sleep func(ctx context.Context, d time.Duration) error

	// execSeq numbers executions; each run rewrites its plan's temp-table
	// names with the ID (dsql.Plan.Isolate) so concurrent executions on
	// one appliance never collide on the nodes' local storage.
	execSeq atomic.Uint64
}

// Backoff bounds: the first retry waits RetryBackoff (or defaultBackoff),
// doubling per retry up to maxRetryBackoff.
const (
	defaultBackoff  = time.Millisecond
	maxRetryBackoff = 250 * time.Millisecond
)

// backoffDelay is the capped exponential wait before retry `attempt`
// (attempt 1 = first retry): base·2^(attempt−1), clamped to max.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = defaultBackoff
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

func (a *Appliance) sleepFn(ctx context.Context, d time.Duration) error {
	if a.sleep != nil {
		return a.sleep(ctx, d)
	}
	return sleepCtx(ctx, d)
}

// New builds an appliance for the shell's topology with empty storage.
func New(shell *catalog.Shell) *Appliance {
	a := &Appliance{
		Shell:   shell,
		Control: &Node{ID: -1, IsControl: true, DB: storage.NewDB()},
	}
	for i := 0; i < shell.Topology.ComputeNodes; i++ {
		a.Compute = append(a.Compute, &Node{ID: i, DB: storage.NewDB()})
	}
	return a
}

// LoadTable places a table's rows per its declared distribution:
// replicated tables land on every compute node, hash tables are routed by
// the distribution column. Per-node loads run on the appliance's worker
// pool.
func (a *Appliance) LoadTable(name string, rows []types.Row) error {
	tbl := a.Shell.Table(name)
	if tbl == nil {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	ctx := context.Background()
	// Loads run outside any DSQL step; fault rules address them with
	// op=load (step/move wildcards only).
	if err := parallelFor(ctx, len(a.Compute), a.workers(len(a.Compute)), func(ctx context.Context, i int) error {
		if _, serr := a.injectFault(ctx, OpLoad, loadStepID, a.Compute[i].ID, Any); serr != nil {
			return serr
		}
		return a.Compute[i].DB.Create(tbl.Name, tbl.Columns)
	}); err != nil {
		return err
	}
	if tbl.Dist.Kind == catalog.DistReplicated {
		return parallelFor(ctx, len(a.Compute), a.workers(len(a.Compute)), func(ctx context.Context, i int) error {
			if _, serr := a.injectFault(ctx, OpLoad, loadStepID, a.Compute[i].ID, Any); serr != nil {
				return serr
			}
			return a.Compute[i].DB.BulkInsert(tbl.Name, rows)
		})
	}
	ci := tbl.ColumnIndex(tbl.Dist.Column)
	buckets := make([][]types.Row, len(a.Compute))
	for _, r := range rows {
		n := int(types.Hash(r[ci]) % uint64(len(a.Compute)))
		buckets[n] = append(buckets[n], r)
	}
	return parallelFor(ctx, len(a.Compute), a.workers(len(a.Compute)), func(ctx context.Context, i int) error {
		if _, serr := a.injectFault(ctx, OpLoad, loadStepID, a.Compute[i].ID, Any); serr != nil {
			return serr
		}
		return a.Compute[i].DB.BulkInsert(tbl.Name, buckets[i])
	})
}

// loadStepID is the pseudo step ID table loads report in StepErrors;
// only step-wildcard fault rules match it.
const loadStepID = -1

// Result is the client-visible query result.
type Result struct {
	Cols []algebra.ColumnMeta
	Rows []types.Row
}

// Execute runs a DSQL plan step by step (paper §2.4: "query plans are
// executed serially, one step at a time", each step parallel across
// nodes — the per-node fan-out is what Parallelism bounds).
func (a *Appliance) Execute(p *dsql.Plan) (*Result, error) {
	return a.ExecuteContext(context.Background(), p)
}

// ExecuteContext is Execute with caller-controlled cancellation: a failing
// node cancels the step's remaining node tasks, and an external cancel
// stops between-node work as soon as the running tasks notice.
//
// Executions are isolated from each other and may run concurrently on one
// appliance: each run works against a private copy of the plan whose temp
// tables carry a unique per-execution suffix, so a long-lived server can
// dispatch many sessions' plans at once.
func (a *Appliance) ExecuteContext(ctx context.Context, p *dsql.Plan) (*Result, error) {
	p = p.Isolate(a.execSeq.Add(1))
	// Session catalog: shell tables plus temp tables registered as steps
	// create them.
	session := catalog.NewShell(a.Shell.Topology.ComputeNodes)
	for _, t := range a.Shell.Tables() {
		if err := session.AddTable(t); err != nil {
			return nil, err
		}
	}
	var tempNames []string
	defer func() {
		for _, name := range tempNames {
			a.dropEverywhere(name)
		}
	}()

	esp := a.Tracer.Begin("execute")
	esp.Int("steps", int64(len(p.Steps)))
	defer esp.End()
	for _, step := range p.Steps {
		res, err := a.runStep(ctx, esp.ID(), step, p, session, &tempNames)
		if err != nil {
			return nil, err
		}
		if res != nil {
			return res, nil
		}
	}
	return nil, errors.New("engine: plan has no return step")
}

// runStep executes one DSQL step under the retry policy: idempotent
// steps get up to 1+MaxRetries attempts at transient failures (injected
// faults, corrupt deliveries, timeouts), with capped exponential backoff
// between attempts and the partial temp table dropped before each rerun.
// Deterministic failures, non-idempotent steps and exhausted budgets
// surface a *StepError. A non-nil Result means the plan is done.
//
// On success the step's metric — stamped with the step ID and attempt
// count — is recorded in Metrics and, when tracing, attached to the
// step's span as its payload.
func (a *Appliance) runStep(ctx context.Context, parent trace.SpanID, step dsql.Step, p *dsql.Plan, session *catalog.Shell, tempNames *[]string) (*Result, error) {
	sp := a.Tracer.BeginUnder(parent, "step")
	defer sp.End()
	// Compilation is deterministic — the same SQL fails the same way — so
	// it runs once, outside the retry loop.
	tree, err := a.compile(step.SQL, session)
	if err != nil {
		serr := stepError(step.ID, NoNode, ErrKindExec, err)
		sp.SetErr(serr)
		return nil, serr
	}
	maxAttempts := 1
	if step.Idempotent && a.MaxRetries > 0 {
		maxAttempts += a.MaxRetries
	}
	var last *StepError
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			a.Metrics.addRetry()
			if err := a.sleepFn(ctx, backoffDelay(a.RetryBackoff, maxRetryBackoff, attempt)); err != nil {
				break
			}
		}
		res, sm, serr := a.attemptStep(ctx, step, tree, p, session, tempNames)
		if serr == nil {
			sm.StepID = step.ID
			sm.Attempts = attempt + 1
			a.Metrics.add(sm)
			a.recordStepTrace(sp, sm)
			return res, nil
		}
		serr.Attempt = attempt
		last = serr
		if step.Kind == dsql.StepMove {
			// A failed move may have staged or published partial rows on
			// any subset of nodes; drop both names everywhere so the next
			// attempt (or the caller) sees a clean appliance.
			a.dropEverywhere(step.Dest)
			a.dropEverywhere(stagingName(step.Dest))
		}
		if !serr.Retryable() {
			break
		}
	}
	if last != nil {
		sp.SetErr(last)
	}
	return nil, last
}

// recordStepTrace attaches the completed step's measurements to its span
// and bumps the exec.* counters. Guarded so the disabled-tracer execution
// path does no conversion work at all.
func (a *Appliance) recordStepTrace(sp trace.Active, sm StepMetric) {
	if a.Tracer == nil {
		return
	}
	sp.SetStep(trace.StepStats{
		Step:         sm.StepID,
		Move:         sm.Move.String(),
		IsMove:       sm.IsMove,
		Rows:         sm.Rows,
		Bytes:        sm.Bytes,
		HashedRows:   sm.HashedRow,
		MaxNodeBytes: sm.MaxNodeBytes,
		Attempts:     sm.Attempts,
		Duration:     sm.Duration,
		LocalOps:     sm.LocalOps,
		LocalRows:    sm.LocalRows,
		LocalBatches: sm.LocalBatches,
	})
	c := a.Tracer.Counters()
	c.Add("exec.steps", 1)
	c.Add("exec.retries", int64(sm.Attempts-1))
	c.Add("exec.local_ops", sm.LocalOps)
	c.Add("exec.local_rows", sm.LocalRows)
	c.Add("exec.local_batches", sm.LocalBatches)
	if sm.IsMove {
		c.Add("exec.bytes_moved", sm.Bytes)
		c.Add("exec.rows_moved", sm.Rows)
	}
}

// attemptStep runs one attempt of a step under the per-attempt timeout
// and classifies any failure. On success it returns the step's metric
// (without StepID/Attempts, which the retry loop stamps).
func (a *Appliance) attemptStep(ctx context.Context, step dsql.Step, tree *algebra.Tree, p *dsql.Plan, session *catalog.Shell, tempNames *[]string) (*Result, StepMetric, *StepError) {
	actx := ctx
	if a.StepTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, a.StepTimeout)
		defer cancel()
	}
	start := time.Now()
	var res *Result
	var sm StepMetric
	var err error
	switch step.Kind {
	case dsql.StepMove:
		sm, err = a.executeMove(actx, step, tree, session, tempNames, start)
	case dsql.StepReturn:
		res, sm, err = a.executeReturn(actx, step, tree, p, start)
	default:
		err = fmt.Errorf("unknown step kind %d", step.Kind)
	}
	if err == nil {
		return res, sm, nil
	}
	return nil, StepMetric{}, classify(step.ID, actx, ctx, err)
}

// classify turns an attempt's failure into a *StepError, distinguishing
// the attempt deadline (timeout, retryable) from caller cancellation
// (not retryable) and deterministic execution errors.
func classify(stepID int, attemptCtx, parentCtx context.Context, err error) *StepError {
	timedOut := errors.Is(attemptCtx.Err(), context.DeadlineExceeded) && parentCtx.Err() == nil
	var se *StepError
	if errors.As(err, &se) {
		if timedOut && se.Kind == ErrKindCancelled {
			// A fault-site sleep interrupted by the attempt deadline is a
			// step timeout, not a caller cancel.
			se.Kind = ErrKindTimeout
		}
		return se
	}
	switch {
	case timedOut:
		return stepError(stepID, NoNode, ErrKindTimeout, err)
	case parentCtx.Err() != nil:
		return stepError(stepID, NoNode, ErrKindCancelled, err)
	default:
		return stepError(stepID, NoNode, ErrKindExec, err)
	}
}

// dropEverywhere removes a temp table from the control node and every
// compute node.
func (a *Appliance) dropEverywhere(name string) {
	a.Control.DB.Drop(name)
	for _, n := range a.Compute {
		n.DB.Drop(name)
	}
}

// stagingName is where a DMS delivery accumulates rows before the
// publishing rename; it shares the destination's temp-table lifecycle.
func stagingName(dest string) string { return dest + "__stage" }

// compile parses, binds and normalizes a DSQL step's SQL text — the role
// of each node's local SQL instance compilation.
func (a *Appliance) compile(sql string, session *catalog.Shell) (*algebra.Tree, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	b := algebra.NewBinder(session)
	tree, err := b.Bind(sel)
	if err != nil {
		return nil, err
	}
	return normalize.New(b).Normalize(tree)
}

// sourceNodes picks the nodes that run a step's SQL.
func (a *Appliance) sourceNodes(step dsql.Step) []*Node {
	switch {
	case step.Kind == dsql.StepMove && step.MoveKind == cost.ControlNodeMove:
		return []*Node{a.Control}
	case step.Kind == dsql.StepMove &&
		(step.MoveKind == cost.ReplicatedBroadcast || step.MoveKind == cost.RemoteCopySingle):
		// A replicated (or single-compute-node) source is read once.
		if step.Where == core.DistSingle {
			return []*Node{a.Control}
		}
		return []*Node{a.Compute[0]}
	case step.Where == core.DistSingle:
		return []*Node{a.Control}
	case step.Where == core.DistReplicated && step.Kind == dsql.StepReturn:
		return []*Node{a.Compute[0]}
	case step.Where == core.DistReplicated && step.Kind == dsql.StepMove && step.MoveKind != cost.Trim:
		return []*Node{a.Compute[0]}
	default:
		return a.Compute
	}
}

// runOnNodes executes the compiled tree on each node, fanned out over the
// appliance's worker pool. Results keep node order; the first failing
// node's error cancels the remaining tasks. stepID and move address the
// per-node fault-injection site (move is Any for non-move steps).
func (a *Appliance) runOnNodes(ctx context.Context, stepID, move int, tree *algebra.Tree, nodes []*Node) ([]*exec.Relation, exec.Stats, error) {
	// The step tree is shared by every node's executor, and Tree.OutputCols
	// memoizes lazily; derive the full schema cache here, before the
	// fan-out, so the workers only ever read it.
	tree.OutputCols()
	rels := make([]*exec.Relation, len(nodes))
	// Per-node stat slots (merged after the barrier) exist only while
	// tracing, so the untraced path allocates nothing extra.
	var stats []exec.Stats
	if a.Tracer != nil {
		stats = make([]exec.Stats, len(nodes))
	}
	err := parallelFor(ctx, len(nodes), a.workers(len(nodes)), func(ctx context.Context, i int) error {
		simulateLatency(ctx, a.NodeLatency)
		n := nodes[i]
		if _, serr := a.injectFault(ctx, OpQuery, stepID, n.ID, move); serr != nil {
			return serr
		}
		src := func(name string) ([]types.Row, []string, error) {
			t := n.DB.Table(name)
			if t == nil {
				return nil, nil, fmt.Errorf("node %d: no table %q", n.ID, name)
			}
			names := make([]string, len(t.Cols))
			for j, c := range t.Cols {
				names[j] = c.Name
			}
			return t.Rows, names, nil
		}
		var st *exec.Stats
		if stats != nil {
			st = &stats[i]
		}
		var rel *exec.Relation
		var err error
		if a.RowExec {
			rel, err = exec.RunStats(tree, src, st)
		} else {
			csrc := func(name string) (*vec.Table, error) {
				t, err := n.DB.ScanColumns(name)
				if err != nil {
					return nil, fmt.Errorf("node %d: no table %q", n.ID, name)
				}
				return t, nil
			}
			rel, err = exec.RunVecStats(tree, csrc, st)
		}
		if err != nil {
			// Node-local evaluation failures are deterministic: attribute
			// the node but classify as exec (not retryable).
			return stepError(stepID, n.ID, ErrKindExec, err)
		}
		rels[i] = rel
		return nil
	})
	var total exec.Stats
	for _, s := range stats {
		total.Merge(s)
	}
	if err != nil {
		return nil, total, err
	}
	for i, rel := range rels {
		if rel == nil {
			return nil, total, stepError(stepID, nodes[i].ID, ErrKindExec, errors.New("node produced no relation"))
		}
	}
	return rels, total, nil
}

// batch is one destination node's routed rows plus its tallied share.
type batch struct {
	node *Node
	rows []types.Row
}

// corruptRows models a DMS payload garbled in transit: the staged copy
// duplicates every row, so any row-count or checksum verification fails.
// The garbage only ever exists in a staging table.
func corruptRows(rows []types.Row) []types.Row {
	out := make([]types.Row, 0, 2*len(rows))
	out = append(out, rows...)
	out = append(out, rows...)
	return out
}

// executeMove runs the step SQL on the source nodes and routes rows per
// the DMS operation into the destination temp table. Routing is computed
// per source relation and inserted per destination node, both on the
// worker pool; the merged row order is independent of scheduling (source
// order within each destination), so parallel and serial execution
// materialize byte-identical temp tables.
//
// Delivery is transactional: rows accumulate in a per-node staging table
// that is renamed to the destination only after every batch lands, so a
// mid-shuffle failure never leaves a half-populated destination visible
// to later steps — the retry path drops the staging leftovers and reruns.
func (a *Appliance) executeMove(ctx context.Context, step dsql.Step, tree *algebra.Tree, session *catalog.Shell, tempNames *[]string, start time.Time) (StepMetric, error) {
	sources := a.sourceNodes(step)
	rels, local, err := a.runOnNodes(ctx, step.ID, int(step.MoveKind), tree, sources)
	if err != nil {
		return StepMetric{}, err
	}
	// Destination setup: create the staging table on each receiving node.
	staging := stagingName(step.Dest)
	destNodes, destDist := a.destFor(step)
	if err := parallelFor(ctx, len(destNodes), a.workers(len(destNodes)), func(ctx context.Context, i int) error {
		if _, serr := a.injectFault(ctx, OpCreate, step.ID, destNodes[i].ID, int(step.MoveKind)); serr != nil {
			return serr
		}
		return destNodes[i].DB.Create(staging, step.DestCols)
	}); err != nil {
		return StepMetric{}, err
	}

	hashPos := -1
	if step.HashCol != "" {
		for i, c := range step.DestCols {
			if c.Name == step.HashCol {
				hashPos = i
			}
		}
		if hashPos < 0 {
			return StepMetric{}, stepError(step.ID, NoNode, ErrKindExec,
				fmt.Errorf("hash column %q missing from destination", step.HashCol))
		}
	}

	var batches []batch
	var hashed int64

	switch step.MoveKind {
	case cost.Shuffle:
		// Hash-route each source relation on the worker pool, then merge
		// per destination in source order (deterministic under any
		// schedule).
		perSrc := make([][][]types.Row, len(rels))
		perSrcHashed := make([]int64, len(rels))
		if err := parallelFor(ctx, len(rels), a.workers(len(rels)), func(_ context.Context, si int) error {
			buckets := make([][]types.Row, len(a.Compute))
			for _, r := range rels[si].Rows {
				perSrcHashed[si]++
				n := 0
				if !r[hashPos].IsNull() {
					n = int(types.Hash(r[hashPos]) % uint64(len(a.Compute)))
				}
				buckets[n] = append(buckets[n], r)
			}
			perSrc[si] = buckets
			return nil
		}); err != nil {
			return StepMetric{}, err
		}
		for _, h := range perSrcHashed {
			hashed += h
		}
		for ni, n := range a.Compute {
			var rows []types.Row
			for si := range perSrc {
				rows = append(rows, perSrc[si][ni]...)
			}
			batches = append(batches, batch{node: n, rows: rows})
		}

	case cost.Trim:
		// Node-local: each node keeps only rows it is responsible for.
		if len(sources) != len(a.Compute) {
			return StepMetric{}, stepError(step.ID, NoNode, ErrKindExec,
				errors.New("trim requires all compute nodes as sources"))
		}
		keeps := make([][]types.Row, len(rels))
		perSrcHashed := make([]int64, len(rels))
		if err := parallelFor(ctx, len(rels), a.workers(len(rels)), func(_ context.Context, si int) error {
			var keep []types.Row
			for _, r := range rels[si].Rows {
				perSrcHashed[si]++
				n := 0
				if !r[hashPos].IsNull() {
					n = int(types.Hash(r[hashPos]) % uint64(len(a.Compute)))
				}
				if n == si {
					keep = append(keep, r)
				}
			}
			keeps[si] = keep
			return nil
		}); err != nil {
			return StepMetric{}, err
		}
		for _, h := range perSrcHashed {
			hashed += h
		}
		for si, n := range a.Compute {
			batches = append(batches, batch{node: n, rows: keeps[si]})
		}

	case cost.Broadcast, cost.ControlNodeMove, cost.ReplicatedBroadcast:
		var all []types.Row
		for _, rel := range rels {
			all = append(all, rel.Rows...)
		}
		for _, n := range a.Compute {
			batches = append(batches, batch{node: n, rows: all})
		}

	case cost.PartitionMove, cost.RemoteCopySingle:
		var all []types.Row
		for _, rel := range rels {
			all = append(all, rel.Rows...)
		}
		batches = append(batches, batch{node: a.Control, rows: all})

	default:
		return StepMetric{}, stepError(step.ID, NoNode, ErrKindExec,
			fmt.Errorf("unsupported move kind %v", step.MoveKind))
	}

	// Deliver every batch into staging on the worker pool, tallying per
	// destination so the step metric aggregates race-free and
	// deterministically.
	type tally struct{ rows, bytes int64 }
	tallies := make([]tally, len(batches))
	if err := parallelFor(ctx, len(batches), a.workers(len(batches)), func(ctx context.Context, i int) error {
		simulateLatency(ctx, a.NodeLatency)
		if f, serr := a.injectFault(ctx, OpDeliver, step.ID, batches[i].node.ID, int(step.MoveKind)); serr != nil {
			if f.Kind == FaultCorrupt {
				// Model a payload garbled in transit and caught by
				// verification: the garbage lands in staging, which is
				// never published and is dropped on the retry path.
				_ = batches[i].node.DB.BulkInsert(staging, corruptRows(batches[i].rows))
			}
			return serr
		}
		var b int64
		for _, r := range batches[i].rows {
			b += int64(r.Width())
		}
		tallies[i] = tally{rows: int64(len(batches[i].rows)), bytes: b}
		return batches[i].node.DB.BulkInsert(staging, batches[i].rows)
	}); err != nil {
		return StepMetric{}, err
	}
	var rows, bytes, maxNode int64
	for _, t := range tallies {
		rows += t.rows
		bytes += t.bytes
		if t.bytes > maxNode {
			maxNode = t.bytes
		}
	}

	// Publish: every batch landed, so rename staging to the destination
	// and only then register the temp table for later steps and cleanup.
	if err := parallelFor(ctx, len(destNodes), a.workers(len(destNodes)), func(_ context.Context, i int) error {
		return destNodes[i].DB.Rename(staging, step.Dest)
	}); err != nil {
		return StepMetric{}, err
	}
	*tempNames = append(*tempNames, step.Dest)
	if err := session.AddTable(&catalog.Table{
		Name:    step.Dest,
		Columns: step.DestCols,
		Dist:    destDist,
	}); err != nil {
		return StepMetric{}, err
	}

	return StepMetric{
		Move: step.MoveKind, IsMove: true,
		Rows: rows, Bytes: bytes, HashedRow: hashed,
		MaxNodeBytes: maxNode,
		Duration:     time.Since(start),
		LocalOps:     local.Ops, LocalRows: local.Rows,
		LocalBatches: local.Batches,
	}, nil
}

// destFor returns the nodes receiving a move's rows and the temp table's
// catalog placement.
func (a *Appliance) destFor(step dsql.Step) ([]*Node, catalog.Distribution) {
	switch step.MoveKind {
	case cost.Shuffle, cost.Trim:
		return a.Compute, catalog.Distribution{Kind: catalog.DistHash, Column: step.HashCol}
	case cost.Broadcast, cost.ControlNodeMove, cost.ReplicatedBroadcast:
		return a.Compute, catalog.Distribution{Kind: catalog.DistReplicated}
	default: // PartitionMove, RemoteCopySingle
		return append([]*Node{}, a.Control), catalog.Distribution{Kind: catalog.DistReplicated}
	}
}

// executeReturn runs the final SQL and assembles the client result,
// merging per-node streams in node order, then applying the plan's order
// spec and TOP — so the merged relation is identical under any worker
// schedule.
func (a *Appliance) executeReturn(ctx context.Context, step dsql.Step, tree *algebra.Tree, p *dsql.Plan, start time.Time) (*Result, StepMetric, error) {
	sources := a.sourceNodes(step)
	rels, local, err := a.runOnNodes(ctx, step.ID, Any, tree, sources)
	if err != nil {
		return nil, StepMetric{}, err
	}
	out := &Result{Cols: p.OutCols}
	var bytes int64
	for _, rel := range rels {
		for _, r := range rel.Rows {
			bytes += int64(r.Width())
		}
		out.Rows = append(out.Rows, rel.Rows...)
	}
	if len(p.OrderBy) > 0 {
		keys := make([]exec.MergeKey, len(p.OrderBy))
		for i, k := range p.OrderBy {
			keys[i] = exec.MergeKey{Pos: k.Pos, Desc: k.Desc}
		}
		// The final merge runs the exact comparator the node-local sorts
		// ran, so NULL placement cannot diverge between a node's ORDER BY
		// and the control node's re-merge. Merge keys can mix kinds when
		// a CASE column mixes branch types; the checked sort turns that
		// into a step error instead of a panic mid-sort.
		if err := exec.SortRows(out.Rows, keys); err != nil {
			return nil, StepMetric{}, stepError(step.ID, NoNode, ErrKindExec, err)
		}
	}
	if p.Top > 0 && int64(len(out.Rows)) > p.Top {
		out.Rows = out.Rows[:p.Top]
	}
	return out, StepMetric{
		Rows: int64(len(out.Rows)), Bytes: bytes,
		Duration:     time.Since(start),
		LocalOps:     local.Ops,
		LocalRows:    local.Rows,
		LocalBatches: local.Batches,
	}, nil
}
