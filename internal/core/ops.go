// Package core implements the paper's contribution: the Graph-Centric
// Scheduler (Algorithm 1) and the Priority Configurator (Algorithm 2) that
// together find cost-minimal decoupled CPU/memory configurations for a
// serverless workflow under an end-to-end latency SLO.
package core

import (
	"container/heap"
	"fmt"
	"math"

	"aarc/internal/resources"
)

// op is one deallocation operation in the Priority Configurator's queue:
// shrink one resource dimension of one function group by the current step.
// It carries its exponential-backoff state (step) and remaining trials
// (the paper's trail / FUNC_TRIAL).
type op struct {
	group string
	gi    int // group's position in its configurePath's group list
	typ   resources.ResourceType
	step  float64 // current absolute step size (vCPU or MB)
	trial int     // remaining trials before the op is abandoned

	priority float64 // larger = sooner; +Inf for untried ops
	seq      int     // FIFO tie-break within equal priority
	index    int     // heap bookkeeping
}

func (o *op) String() string {
	return fmt.Sprintf("%s/%s step=%.3g trial=%d prio=%.3g", o.group, o.typ, o.step, o.trial, o.priority)
}

// opQueue is a max-heap of ops ordered by priority, with FIFO order among
// equal priorities (stable via seq). It implements the paper's PQ.
type opQueue struct {
	items []*op
	nseq  int
	fifo  bool // ablation: ignore priorities, behave as a plain FIFO queue
}

var _ heap.Interface = (*opQueue)(nil)

func newOpQueue(fifo bool) *opQueue { return &opQueue{fifo: fifo} }

func (q *opQueue) Len() int { return len(q.items) }

func (q *opQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if q.fifo || a.priority == b.priority {
		return a.seq < b.seq
	}
	// NaN-safe: treat NaN as lowest priority.
	if math.IsNaN(a.priority) {
		return false
	}
	if math.IsNaN(b.priority) {
		return true
	}
	return a.priority > b.priority
}

func (q *opQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}

func (q *opQueue) Push(x any) {
	o := x.(*op)
	o.index = len(q.items)
	q.items = append(q.items, o)
}

func (q *opQueue) Pop() any {
	old := q.items
	n := len(old)
	o := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return o
}

// push enqueues o at the given priority, assigning a fresh sequence number.
func (q *opQueue) push(o *op, priority float64) {
	o.priority = priority
	o.seq = q.nseq
	q.nseq++
	heap.Push(q, o)
}

// pop removes and returns the highest-priority op; nil when empty.
func (q *opQueue) pop() *op {
	if q.Len() == 0 {
		return nil
	}
	return heap.Pop(q).(*op)
}
