package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"pdwqo"
	"pdwqo/internal/server"
)

const (
	serveSF       = 0.05
	serveSessions = 2
	serveSetups   = 2
)

// roundTrip is one client query as the client saw it.
type roundTrip struct {
	name, sql  string
	start, end time.Time
	// status is the plan cache outcome the server reported.
	status string
}

// sessionLog is what one client session records; only its own goroutine
// writes it until the sessions have been joined.
type sessionLog struct {
	trips []roundTrip
	fails []string
}

// phaseLog collects the server's PhaseHook timestamps.
type phaseLog struct {
	mu     sync.Mutex
	events map[server.Phase]map[string][]time.Time
}

func (p *phaseLog) hook(ph server.Phase, sql string) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.events[ph] == nil {
		p.events[ph] = map[string][]time.Time{}
	}
	p.events[ph][sql] = append(p.events[ph][sql], now)
}

// runServe is tpch-serve: an in-process server on loopback over TPC-H
// sf 0.05 with the plan cache warmed in set-up by compiling all 22
// queries, and two client sessions in a closed loop, each issuing the
// 22 queries in its own seeded order until the run length has passed.
// Every measured query must be a plan-cache hit.
func runServe(b *bench) error {
	queries := tpchQueries()
	opts := pdwqo.Options{Verify: true}
	plans := map[string]*pdwqo.QueryPlan{}
	warm := func(db *pdwqo.DB) error {
		db.SetPlanCache(0)
		for _, q := range queries {
			qp, err := db.Optimize(q.sql, opts)
			if err != nil {
				return fmt.Errorf("warm plan cache with %s: %w", q.name, err)
			}
			plans[q.name] = qp
		}
		return nil
	}
	db, setups, err := b.setupTPCH(serveSF, serveSetups, warm)
	if err != nil {
		return err
	}
	refs, err := buildReferences(func(int) *pdwqo.DB { return db }, queries)
	if err != nil {
		return err
	}
	b.facts["sessions"] = serveSessions

	var phases *phaseLog
	// MaxConcurrent covers every session, so admission never sheds.
	cfg := server.Config{MaxConcurrent: serveSessions, Opts: opts}
	if b.trace {
		phases = &phaseLog{events: map[server.Phase]map[string][]time.Time{}}
		cfg.PhaseHook = phases.hook
		db.SetTracer(pdwqo.NewTracer())
	}
	srv := server.New(db, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return fmt.Errorf("listen: %w", err)
	}
	clients := make([]*server.Client, serveSessions)
	for s := range clients {
		if clients[s], err = server.Dial(addr.String()); err != nil {
			for _, c := range clients[:s] {
				c.Close()
			}
			srv.Shutdown()
			return fmt.Errorf("dial session %d: %w", s, err)
		}
	}

	app := db.Appliance()
	pc0, st0, n0 := db.PlanCache().Metrics(), srv.Stats(), app.Metrics.StepCount()
	logs := make([]sessionLog, serveSessions)
	w := openWindow()
	deadline := w.start.Add(b.seconds)
	var wg sync.WaitGroup
	for s, c := range clients {
		wg.Add(1)
		go func(l *sessionLog, c *server.Client, rng *rand.Rand) {
			defer wg.Done()
			var order []int
			// Each session finishes the query in flight at the deadline,
			// so shutdown never cancels a query.
			for time.Now().Before(deadline) {
				if len(order) == 0 {
					order = rng.Perm(len(queries))
				}
				q := queries[order[0]]
				order = order[1:]
				start := time.Now()
				res, err := c.Query(context.Background(), q.sql)
				trip := roundTrip{name: q.name, sql: q.sql, start: start, end: time.Now()}
				if err == nil {
					trip.status = res.CacheStatus
				}
				l.trips = append(l.trips, trip)
				if err == nil && res.CacheStatus != "hit" {
					err = fmt.Errorf("plan cache %q, want hit", res.CacheStatus)
				}
				if err == nil {
					err = refs[q.name].checkWire(res.Columns, res.Rows)
				}
				if err != nil {
					l.fails = append(l.fails, fmt.Sprintf("%s: %v", q.name, err))
				}
			}
		}(&logs[s], c, rand.New(rand.NewSource(b.seed*serveSessions+int64(s))))
	}
	wg.Wait()
	ws := w.close()
	pc1, st1 := db.PlanCache().Metrics(), srv.Stats()
	steps := app.Metrics.Snapshot()[n0:]
	for _, c := range clients {
		c.Close()
	}
	srv.Shutdown()

	var trips []roundTrip
	for s, l := range logs {
		trips = append(trips, l.trips...)
		for _, f := range l.fails {
			b.fail("session %d: %s", s, f)
		}
	}
	b.attempted = len(trips)
	shed := st1.Admission.RejectedFull + st1.Admission.RejectedTimeout - st0.Admission.RejectedFull - st0.Admission.RejectedTimeout
	if shed > 0 {
		// Shed queries already failed on their client; this names why.
		fmt.Fprintf(os.Stderr, "perfbench: %d queries shed by admission\n", shed)
	}
	if !b.trace {
		lat := make([]time.Duration, len(trips))
		costs := map[string]float64{}
		for i, t := range trips {
			lat[i] = t.end.Sub(t.start)
		}
		for name, qp := range plans {
			costs[name] = qp.Cost()
		}
		b.endToEnd(setups, lat, ws, costs)
		return nil
	}

	n := float64(len(trips))
	if err := b.serveSpans(trips, phases); err != nil {
		b.fail("server phases: %v", err)
	}
	self := b.spans.selfTimes()
	b.set("server.wire_ms", millis(self["server.wire"])/n, "ms")
	b.set("server.queue_wait_ms", millis(self["server.queue_wait"])/n, "ms")
	b.set("plancache.lookup_ms", millis(self["plancache.lookup"])/n, "ms")
	b.set("engine.execute_ms", millis(self["engine.execute"])/n, "ms")
	b.set("server.stream_ms", millis(self["server.stream"])/n, "ms")
	b.set("server.shed", float64(shed), "count")

	var hits int
	for _, t := range trips {
		if t.status == "hit" {
			hits++
		}
	}
	b.set("plancache.hit_ratio", float64(hits)/n, "ratio")
	b.set("plancache.compiles", float64(pc1.Compiles-pc0.Compiles), "count")
	if pc1.Compiles != pc0.Compiles {
		// The compile-layer metrics are reported as zero on the grounds
		// that nothing compiled in the window.
		b.fail("plan cache compiled %d plans in the measured window", pc1.Compiles-pc0.Compiles)
	}

	var move, ret time.Duration
	var rows, batches int64
	var maxSkew float64
	for _, s := range steps {
		rows += s.LocalRows
		batches += s.LocalBatches
		if !s.IsMove {
			ret += s.Duration
			continue
		}
		move += s.Duration
		if skew := shuffleSkew(s, len(app.Compute)); skew > maxSkew {
			maxSkew = skew
		}
	}
	b.set("engine.move_step_ms", millis(move)/n, "ms")
	b.set("engine.return_step_ms", millis(ret)/n, "ms")
	b.set("engine.max_node_skew", maxSkew, "ratio")
	b.set("exec.local_rows", float64(rows)/n, "count")
	b.set("exec.local_batches", float64(batches)/n, "count")
	b.runtimeLayer(ws, len(trips))
	b.facts["samples"] = len(trips)
	b.facts["window_s"] = ws.elapsed.Seconds()
	return b.serveCounts(db, queries, plans)
}

// serveSpans pairs each client round trip with the server's phase
// timestamps for the same SQL text, in order, and records the phases as
// child spans of the round trip. Two sessions can run the same query at
// once, so a pairing may cross sessions, but every phase's total time,
// which the metrics use, is the same under any pairing.
func (b *bench) serveSpans(trips []roundTrip, phases *phaseLog) error {
	bySQL := map[string][]roundTrip{}
	for _, t := range trips {
		bySQL[t.sql] = append(bySQL[t.sql], t)
	}
	order := []server.Phase{server.PhaseQueued, server.PhaseCompiling, server.PhaseExecuting, server.PhaseStreaming}
	names := []string{"server.wire", "server.queue_wait", "plancache.lookup", "engine.execute", "server.stream"}
	sqls := make([]string, 0, len(bySQL))
	for sql := range bySQL {
		sqls = append(sqls, sql)
	}
	sort.Strings(sqls)
	for _, sql := range sqls {
		ts := bySQL[sql]
		sort.Slice(ts, func(i, j int) bool { return ts[i].start.Before(ts[j].start) })
		var marks [][]time.Time
		for _, ph := range order {
			ev := append([]time.Time(nil), phases.events[ph][sql]...)
			if len(ev) != len(ts) {
				return fmt.Errorf("%s: %d %s events for %d round trips", ts[0].name, len(ev), ph, len(ts))
			}
			sort.Slice(ev, func(i, j int) bool { return ev[i].Before(ev[j]) })
			marks = append(marks, ev)
		}
		for i, t := range ts {
			qid := fmt.Sprintf("%s#%d", t.name, i)
			root := b.spans.add(qid, "client.roundtrip", -1, t.start, t.end.Sub(t.start))
			bounds := []time.Time{t.start}
			for _, ev := range marks {
				bounds = append(bounds, ev[i])
			}
			bounds = append(bounds, t.end)
			for k, name := range names {
				b.spans.add(qid, name, root, bounds[k], bounds[k+1].Sub(bounds[k]))
			}
		}
	}
	return nil
}

// serveCounts executes each warmed plan once after the window, one at
// a time, for the deterministic per-query counts: DSQL steps and DMS
// bytes moved.
func (b *bench) serveCounts(db *pdwqo.DB, queries []namedQuery, plans map[string]*pdwqo.QueryPlan) error {
	app := db.Appliance()
	var steps int
	var moved int64
	for _, q := range queries {
		qp := plans[q.name]
		steps += len(qp.DSQL.Steps)
		n0 := app.Metrics.StepCount()
		if _, err := db.ExecutePlan(qp); err != nil {
			return fmt.Errorf("count pass %s: %w", q.name, err)
		}
		for _, s := range app.Metrics.Snapshot()[n0:] {
			if s.IsMove {
				moved += s.Bytes
			}
		}
	}
	n := float64(len(queries))
	b.set("dsql.steps", float64(steps)/n, "count")
	b.set("engine.dms_mb", float64(moved)/1e6/n, "MB")
	return nil
}
