package main

import (
	"fmt"
	"math"

	"dmknn/internal/cluster"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/sim"
)

// oracle checks client-visible answers against a brute-force kNN over the
// engine's object positions. It shares no code with the program's grid
// index or the simulation's auditor.
type oracle struct {
	d2   []float64 // squared distance of every object to the query
	heap []float64 // max-heap of the k smallest squared distances
}

// exact reports whether got is a correct kNN answer for a focal point at
// (qx, qy): exactly k distinct objects, none farther than the true k-th
// distance, and every object strictly nearer than it included. Objects
// tied at the k-th distance (within the tolerance the simulation's own
// auditor uses) are interchangeable.
func (o *oracle) exact(objs []model.ObjectState, qx, qy float64, k int, got model.Answer) error {
	if len(got.Neighbors) != k {
		return fmt.Errorf("answer holds %d neighbours, want %d", len(got.Neighbors), k)
	}
	if cap(o.d2) < len(objs) {
		o.d2 = make([]float64, len(objs))
	}
	d2 := o.d2[:len(objs)]
	h := o.heap[:0]
	for i := range objs {
		dx, dy := objs[i].Pos.X-qx, objs[i].Pos.Y-qy
		d := dx*dx + dy*dy
		d2[i] = d
		if len(h) < k {
			h = append(h, d)
			siftUp(h, len(h)-1)
		} else if d < h[0] {
			h[0] = d
			siftDown(h, 0)
		}
	}
	o.heap = h
	dk := math.Sqrt(h[0])
	tol := 1e-6 + dk*1e-9
	hi, lo := sq(dk+tol), sq(math.Max(dk-tol, 0))
	strict := 0
	for _, d := range d2 {
		if d < lo {
			strict++
		}
	}
	inStrict := 0
	for i, n := range got.Neighbors {
		idx := int(n.ID) - 1
		if idx < 0 || idx >= len(objs) {
			return fmt.Errorf("neighbour %d is not an object", n.ID)
		}
		for _, prev := range got.Neighbors[:i] {
			if prev.ID == n.ID {
				return fmt.Errorf("neighbour %d listed twice", n.ID)
			}
		}
		switch d := d2[idx]; {
		case d > hi:
			return fmt.Errorf("neighbour %d at %.3f m is beyond the k-th distance %.3f m", n.ID, math.Sqrt(d), dk)
		case d < lo:
			inStrict++
		}
	}
	if inStrict != strict {
		return fmt.Errorf("answer misses %d objects nearer than the k-th distance %.3f m", strict-inStrict, dk)
	}
	return nil
}

func sq(x float64) float64 { return x * x }

func siftUp(h []float64, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []float64, i int) {
	for {
		l, big := 2*i+1, i
		if l < len(h) && h[l] > h[big] {
			big = l
		}
		if r := l + 1; r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// checker runs every per-tick check of a round and counts operations:
// one per (query, tick) answer, one per tick for the medium, and one per
// tick for the federation's query homes.
type checker struct {
	o         oracle
	attempted int
	failed    int
	firstErr  error

	// exactApart, when set, keeps the oracle's verdict out of the
	// operations: an answer of k neighbours that the oracle rejects is
	// counted in inexact, not in failed (see spec.exactApart).
	exactApart   bool
	inexact      int
	firstInexact error
}

func (c *checker) note(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

// tick checks the state after one measured tick.
func (c *checker) tick(env *sim.Env, m sim.Method, k int, cl *cluster.Cluster, now model.Tick) {
	for i := range env.Queries {
		q := &env.Queries[i]
		a := m.Answer(q.Spec.ID)
		err := c.o.exact(env.Objects, q.State.Pos.X, q.State.Pos.Y, k, a)
		if err != nil {
			err = fmt.Errorf("tick %d query %d: %w", now, q.Spec.ID, err)
			if c.exactApart && len(a.Neighbors) == k {
				c.inexact++
				if c.firstInexact == nil {
					c.firstInexact = err
				}
				err = nil
			}
		}
		c.note(err)
	}
	c.note(cleanMedium(env.Net.Counters(), now))
	if cl != nil {
		c.note(oneHome(cl, len(env.Queries), now))
	}
}

// cleanMedium checks that a lossless medium delivered every message by
// the end of the tick: no drops in any direction, and every unicast sent
// in either direction delivered. (A broadcast counts per-cell sends but
// per-recipient deliveries, so only its drops are comparable.)
func cleanMedium(c *metrics.Counters, now model.Tick) error {
	for _, d := range metrics.Directions() {
		if c.Dropped(d) != 0 {
			return fmt.Errorf("tick %d: %d %s messages dropped on a clean medium", now, c.Dropped(d), d)
		}
	}
	for _, d := range []metrics.Direction{metrics.Uplink, metrics.Downlink} {
		if c.Sent(d) != c.Delivered(d) {
			return fmt.Errorf("tick %d: %d %s messages sent, %d delivered", now, c.Sent(d), d, c.Delivered(d))
		}
	}
	return nil
}

// oneHome checks that the federation's nodes together hold every query
// exactly once.
func oneHome(cl *cluster.Cluster, queries int, now model.Tick) error {
	nodes := cl.Partition().Nodes()
	total := 0
	for i := 0; i < nodes; i++ {
		total += cl.Node(i).QueryCount()
	}
	if total != queries {
		return fmt.Errorf("tick %d: nodes hold %d queries, want %d", now, total, queries)
	}
	for q := 1; q <= queries; q++ {
		homes := 0
		for i := 0; i < nodes; i++ {
			if cl.Node(i).HasQuery(model.QueryID(q)) {
				homes++
			}
		}
		if homes != 1 {
			return fmt.Errorf("tick %d: query %d has %d homes", now, q, homes)
		}
	}
	return nil
}
