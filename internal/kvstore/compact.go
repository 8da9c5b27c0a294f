package kvstore

// Compaction in fragmented (PebblesDB) mode never merges with the tables
// already present in the destination level: the merged output of the source
// run is split at the destination's guard boundaries and simply prepended
// to each destination run. Only the final level merges in place, bounding
// space. Any merge drops a tombstone once nothing beneath its output
// holds a live version of the key; beneath the final level nothing ever
// does. The PlainLeveled option switches to classic leveled behaviour —
// merge with the destination run and rewrite it — which the ablation
// benchmark uses to quantify the write-amplification the fragmented
// design saves.
//
// Simplification vs. PebblesDB: a level's guard partition is chosen when
// the level first receives data and is not re-split afterwards. At
// metadata-store scale the guard set stabilises after the first few
// flushes, and this keeps every table wholly inside one run, which keeps
// reads trivially correct.

func (db *DB) maybeCompactLocked() error {
	for {
		progressed := false
		if len(db.l0) > db.opts.MaxL0Tables {
			if err := db.compactL0Locked(); err != nil {
				return err
			}
			progressed = true
		}
		for li := 0; li < len(db.levels); li++ {
			lvl := db.levels[li]
			for _, run := range lvl.allRuns() {
				if len(run.tables) > db.opts.MaxTablesPerGuard {
					if err := db.compactRunLocked(li, run); err != nil {
						return err
					}
					progressed = true
				}
			}
		}
		if !progressed {
			return nil
		}
	}
}

// mergeInto streams the newest-wins merge of tables (ordered newest
// first), restricted to keys in [lo, hi), into one fresh table; nil when
// nothing survives. below names the tables the output will sit on; a
// tombstone survives only if they still hold a value for its key.
// Entries go from the cursors' read buffers straight into the builder,
// so a compaction holds a few chunks in memory, never the merged run.
func (db *DB) mergeInto(tables []*sstable, lo, hi []byte, below beneath) (*sstable, error) {
	cursors := make([]cursor, 0, len(tables))
	for _, t := range tables {
		if t.overlaps(lo, hi) {
			cursors = append(cursors, newSSTCursor(t, lo, hi, &db.stats.reads))
		}
	}
	if len(cursors) == 0 {
		return nil, nil
	}
	m, err := newMergeIterator(cursors)
	if err != nil {
		return nil, err
	}
	defer m.close()
	var b *tableBuilder // made at the first surviving entry
	fail := func(err error) (*sstable, error) {
		if b != nil {
			b.abort()
		}
		return nil, err
	}
	for {
		key, value, tombstone, ok, err := m.next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		if tombstone && !db.needsTombstone(below, key) {
			continue
		}
		if b == nil {
			if b, err = newTableBuilder(db.newTablePath()); err != nil {
				return nil, err
			}
		}
		if err := b.add(key, value, tombstone); err != nil {
			return fail(err)
		}
	}
	if b == nil {
		return nil, nil
	}
	t, err := b.finish()
	if err != nil {
		return nil, err
	}
	db.stats.bytesCompacted.Add(t.size)
	return t, nil
}

// ensureGuardsLocked assigns a guard partition to level li (0-based index
// into db.levels, i.e. L(li+1)) if it has none and is about to receive
// data.
func (db *DB) ensureGuardsLocked(li int) {
	lvl := db.levels[li]
	if lvl.guardKeys != nil || lvl.populated() {
		return
	}
	keys := db.guards.forLevel(li + 1)
	lvl.guardKeys = keys
	lvl.guards = make([]guardRun, len(keys))
}

func (l *dbLevel) populated() bool {
	if len(l.sentinel.tables) > 0 {
		return true
	}
	for i := range l.guards {
		if len(l.guards[i].tables) > 0 {
			return true
		}
	}
	return false
}

// compactInto pushes src (tables newer than everything in level li,
// ordered newest first) into level li: the merged run is split at the
// level's guard boundaries and one table per non-empty segment goes to
// the front of its guard's run. In PlainLeveled mode, and on the last
// level, a segment is instead merged with the tables already in the run,
// which is rewritten as a single table. Either way the output sits on the
// run's tables it does not replace and on every deeper level.
func (db *DB) compactInto(li int, src []*sstable) error {
	db.ensureGuardsLocked(li)
	lvl := db.levels[li]
	lastLevel := li == len(db.levels)-1
	for gi := -1; gi < len(lvl.guardKeys); gi++ {
		var lo, hi []byte // guard gi covers [lo, hi)
		if gi >= 0 {
			lo = lvl.guardKeys[gi]
		}
		if gi+1 < len(lvl.guardKeys) {
			hi = lvl.guardKeys[gi+1]
		}
		touched := false
		for _, t := range src {
			touched = touched || t.overlaps(lo, hi)
		}
		if !touched {
			continue // src has nothing for this guard; its run stays as it is
		}
		run := lvl.run(gi)
		inputs, rewrite := src, db.opts.PlainLeveled || (lastLevel && len(run.tables) > 0)
		if rewrite {
			inputs = append(append([]*sstable(nil), src...), run.tables...)
		}
		below := beneath{tables: run.tables, level: li + 1}
		if rewrite {
			below.tables = nil
		}
		t, err := db.mergeInto(inputs, lo, hi, below)
		if err != nil {
			return err
		}
		if rewrite {
			// Also when nothing survived: tombstones cancelled the run out.
			db.retire(run.tables)
			run.tables = nil
		}
		if t != nil {
			run.tables = append([]*sstable{t}, run.tables...)
		}
	}
	return nil
}

// compactL0Locked merges every L0 table into L1.
func (db *DB) compactL0Locked() error {
	if err := db.compactInto(0, db.l0); err != nil {
		return err
	}
	db.retire(db.l0)
	db.l0 = nil
	db.stats.compactions.Add(1)
	return nil
}

// compactRunLocked pushes one over-full run of level li into level li+1,
// or merges it in place when li is the last level, where nothing lies
// beneath and so no tombstone survives.
func (db *DB) compactRunLocked(li int, run *guardRun) error {
	old := run.tables
	if li == len(db.levels)-1 {
		t, err := db.mergeInto(old, nil, nil, beneath{level: len(db.levels)})
		if err != nil {
			return err
		}
		run.tables = nil
		if t != nil {
			run.tables = []*sstable{t}
		}
	} else {
		if err := db.compactInto(li+1, old); err != nil {
			return err
		}
		run.tables = nil
	}
	db.retire(old)
	db.stats.compactions.Add(1)
	return nil
}
