package pagetable

// Clone returns a deep copy of the table sharing no tables with t. Shard
// simulators each walk a private copy: Walk/WalkFast bump the stats
// counters, so sharing one table across goroutines would race even though
// translations themselves are reads. The entries carry every table's
// synthetic frame, so the detailed walk model sees identical cache lines
// from a clone.
func (t *Table) Clone() *Table {
	return &Table{root: cloneDir(t.root, clonePDPT), stats: t.stats}
}

func cloneDir[C any](d *dir[C], cloneChild func(*C) *C) *dir[C] {
	c := &dir[C]{pte: d.pte}
	for i, ch := range &d.child {
		if ch != nil {
			c.child[i] = cloneChild(ch)
		}
	}
	return c
}

func clonePDPT(d *pdptTable) *pdptTable { return cloneDir(d, clonePD) }

func clonePD(d *pdTable) *pdTable { return cloneDir(d, cloneLeaf) }

func cloneLeaf(lf *leaf) *leaf {
	c := *lf
	return &c
}
