package calendar

import (
	"coalloc/internal/dtree"
	"coalloc/internal/period"
)

// treeView is the dtree backend's View: the slot trees and the tail index as
// of one instant.
//
// Copy-on-write contract. PublishView copies the slot-tree pointer ring and
// marks every referenced tree as shared; the calendar clones a shared tree
// (dtree.Clone) before its first post-publish mutation, so the tree a view
// references is frozen the moment the view exists. The tail index is copied
// outright (it is a flat slice, cheaper to copy than to track). View
// searches use the side-effect-free dtree read path (SearchRO), which
// touches no operation counter or node pool — a view
// therefore contributes nothing to the Fig. 7(b) operation metric, exactly
// like any other read replica.
type treeView struct {
	cfg        Config
	now        period.Time
	epoch      uint64 // Calendar.MutationEpoch at publication
	base       int64
	horizonEnd period.Time
	slots      []*dtree.Tree // same ring layout as Calendar.slots (index = abs % Slots)
	tails      *tailIndex    // cloned, with no operation counter
}

// PublishView captures the calendar's current searchable state as an
// immutable View and marks every live slot tree shared, so later mutations
// clone before writing. Cost: O(Slots) pointer copies plus O(Servers) tail
// entries; no tree is cloned until one is actually mutated.
func (c *Calendar) PublishView() View {
	v := &treeView{
		cfg:        c.cfg,
		now:        c.now,
		epoch:      c.mut,
		base:       c.base,
		horizonEnd: c.HorizonEnd(),
		slots:      append([]*dtree.Tree(nil), c.slots...),
		tails:      c.tails.cloneRO(),
	}
	for i := range c.shared {
		c.shared[i] = true
	}
	return v
}

// Now returns the instant the view was published at.
func (v *treeView) Now() period.Time { return v.now }

// Epoch returns the calendar's mutation epoch at publication. Two views with
// equal epochs answer every availability question identically.
func (v *treeView) Epoch() uint64 { return v.epoch }

// HorizonEnd returns the right edge of the view's active window.
func (v *treeView) HorizonEnd() period.Time { return v.horizonEnd }

// RangeSearch returns every idle period feasible for [start, end) as of the
// view's publication instant — the concurrent read-path twin of
// Calendar.RangeSearch, byte-for-byte the same result set.
func (v *treeView) RangeSearch(start, end period.Time) []period.Period {
	if end <= start {
		return nil
	}
	q := int64(start) / int64(v.cfg.SlotSize)
	if q < v.base || q >= v.base+int64(v.cfg.Slots) || end > v.horizonEnd {
		return nil
	}
	feasible, _ := v.slots[q%int64(v.cfg.Slots)].SearchRO(start, end, 0)
	return v.tails.collect(start, 0, feasible)
}

// Available reports how many servers could be co-allocated over [start, end)
// as of the view's publication instant.
func (v *treeView) Available(start, end period.Time) int {
	return len(v.RangeSearch(start, end))
}
