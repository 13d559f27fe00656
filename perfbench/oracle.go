package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pdwqo"
	"pdwqo/internal/types"
)

// namedQuery is one workload query.
type namedQuery struct {
	name string
	sql  string
}

// reference is one query's expected result, from db.ExecuteSerial: the
// column names and the sorted row multiset. Floats agree when they match
// to 12 significant digits (a relative difference of at most 1e-12),
// the precision the difftest suites compare at: distributed aggregation
// sums in a different order than the serial reference. A tolerance
// rather than rounding to 12 digits keeps two sums that straddle a
// rounding boundary from reading as different.
type reference struct {
	cols      []string
	floatCols []bool
	rows      [][]cell
}

// cell is one canonical value: a float, or any other value's rendering.
type cell struct {
	isFloat bool
	f       float64
	s       string
}

const floatTolerance = 1e-12

func newReference(res *pdwqo.Result) *reference {
	r := &reference{cols: res.Columns, floatCols: make([]bool, len(res.Columns)), rows: typedCells(res.Rows)}
	for _, row := range r.rows {
		for i, c := range row {
			if i < len(r.floatCols) && c.isFloat {
				r.floatCols[i] = true
			}
		}
	}
	return r
}

func typedCells(rows []types.Row) [][]cell {
	out := make([][]cell, len(rows))
	for i, row := range rows {
		out[i] = make([]cell, len(row))
		for j, v := range row {
			if v.Kind() == types.KindFloat {
				out[i][j] = cell{isFloat: true, f: v.Float()}
			} else {
				out[i][j] = cell{s: v.String()}
			}
		}
	}
	sortCells(out)
	return out
}

// sortCells orders rows cell by cell, floats numerically, so two
// multisets that agree line up row for row.
func sortCells(rows [][]cell) {
	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for i := 0; i < len(ra) && i < len(rb); i++ {
			x, y := ra[i], rb[i]
			switch {
			case x.isFloat != y.isFloat:
				return !x.isFloat
			case x.isFloat && x.f != y.f:
				return x.f < y.f
			case !x.isFloat && x.s != y.s:
				return x.s < y.s
			}
		}
		return len(ra) < len(rb)
	})
}

// check compares a library or engine result with the reference.
func (r *reference) check(cols []string, rows []types.Row) error {
	if err := r.checkCols(cols); err != nil {
		return err
	}
	return r.checkRows(typedCells(rows))
}

// checkWire compares a wire result, whose values arrive as their string
// renderings, with the reference; values of float columns are parsed.
func (r *reference) checkWire(cols []string, rows [][]string) error {
	if err := r.checkCols(cols); err != nil {
		return err
	}
	got := make([][]cell, len(rows))
	for i, row := range rows {
		got[i] = make([]cell, len(row))
		for j, s := range row {
			got[i][j] = cell{s: s}
			if j < len(r.floatCols) && r.floatCols[j] && s != "NULL" {
				f, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return fmt.Errorf("row %d column %d: %q is not a float", i, j, s)
				}
				got[i][j] = cell{isFloat: true, f: f}
			}
		}
	}
	sortCells(got)
	return r.checkRows(got)
}

func (r *reference) checkRows(got [][]cell) error {
	if len(got) != len(r.rows) {
		return fmt.Errorf("%d rows, serial reference has %d", len(got), len(r.rows))
	}
	for i, want := range r.rows {
		if len(got[i]) != len(want) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(got[i]), len(want))
		}
		for j, w := range want {
			g := got[i][j]
			if g.isFloat != w.isFloat || (!w.isFloat && g.s != w.s) ||
				(w.isFloat && math.Abs(g.f-w.f) > floatTolerance*math.Max(math.Abs(g.f), math.Abs(w.f))) {
				return fmt.Errorf("sorted row %d column %d: got %v, serial reference %v", i, j, g, w)
			}
		}
	}
	return nil
}

func (r *reference) checkCols(cols []string) error {
	if strings.Join(cols, "|") != strings.Join(r.cols, "|") {
		return fmt.Errorf("columns %v, want %v", cols, r.cols)
	}
	return nil
}

// referenceWorkers bounds the serial-reference computation; the hosts
// this benchmark targets have two CPUs.
const referenceWorkers = 2

// buildReferences computes the serial reference of every query on its
// database. It runs before the measured window and is not part of any
// reported set-up time.
func buildReferences(dbOf func(i int) *pdwqo.DB, queries []namedQuery) (map[string]*reference, error) {
	refs := make([]*reference, len(queries))
	errs := make([]error, len(queries))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < referenceWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := dbOf(i).ExecuteSerial(queries[i].sql)
				if err != nil {
					errs[i] = fmt.Errorf("serial reference of %s: %w", queries[i].name, err)
					continue
				}
				refs[i] = newReference(res)
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()
	out := make(map[string]*reference, len(queries))
	for i, q := range queries {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[q.name] = refs[i]
	}
	return out, nil
}
