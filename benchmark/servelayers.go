package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"phasehash/internal/core"
	"phasehash/internal/epoch"
	"phasehash/internal/hashx"
	"phasehash/internal/obs"
)

// serveLayers measures the layers under the wire in this process: an
// epoch.Server with phserver's defaults driven through Submit at the two
// rates, then the sharded table's bulk kernels on batches of the mean
// epoch size and mix the server flushed.
func serveLayers(p *pass, l load, tcp [2]openResult, budget time.Duration) error {
	srv := epoch.NewServer(epoch.Config{Size: 1 << 20, MaxBatch: 4096, FlushInterval: time.Millisecond})
	shards, cells := srv.Table().NumShards(), srv.Table().Size()
	before := obs.CoreSnapshot()
	var prev epoch.Stats
	var batch float64
	for i, rate := range []float64{lowRate, highRate} {
		name := [2]string{"low", "high"}[i]
		submit, resolve, t := submitLoop(srv, l, phase(6+i), rate, 3*budget/20, p.tr)
		p.account("epoch "+name, t)
		st := srv.Stats()
		batch = float64(st.FlushedOps-prev.FlushedOps) / float64(max(st.Epochs-prev.Epochs, 1))
		prev = st
		p.note("epoch.submit_p50_us."+name, median(submit))
		p.note("epoch.submit_p99_us."+name, quantile(submit, 0.99))
		p.note("epoch.resolve_p50_ms."+name, median(resolve))
		p.note("epoch.resolve_p99_ms."+name, quantile(resolve, 0.99))
		p.note("epoch.batch_ops."+name, batch)
		p.note("wire.extra_p50_ms."+name, median(tcp[i].lat)-median(resolve))
		p.note("wire.extra_p99_ms."+name, quantile(tcp[i].lat, 0.99)-quantile(resolve, 0.99))
	}
	counters := obs.CoreSnapshot().Sub(before)
	p.note("epoch.max_queue", float64(srv.Stats().MaxQueue))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		return fmt.Errorf("closing the epoch server: %w", err)
	}
	keys := kernelProbe(p, l, shards, max(int(batch), 4))
	return layerMetrics(p, layerInputs{
		core:     "ShardedTable",
		batch:    keys,
		shards:   shards,
		cells:    cells,
		counters: counters,
		unitMs:   tcp[0].lat,
	})
}

// submitLoop submits rate ops/s for d from two goroutines, as the two
// connections would, and returns Submit call times (us), times from due
// to resolution (ms) and the tally.
func submitLoop(srv *epoch.Server, l load, base uint64, rate float64, d time.Duration, tr *tracer) (submit, resolve []float64, t tally) {
	type pending struct {
		fut *epoch.Future
		due time.Time
		id  uint64
	}
	period := time.Duration(float64(time.Second) / rate)
	total := int(rate * d.Seconds())
	start := time.Now()
	subs := make([][]float64, serveConns)
	ress := make([][]float64, serveConns)
	tallies := make([]tally, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		m := (total - c + serveConns - 1) / serveConns
		subs[c], ress[c] = make([]float64, 0, m), make([]float64, 0, m)
		// Sized to the whole phase, so submitting never waits on resolving.
		queue := make(chan pending, m)
		wg.Add(2)
		go func(c int) {
			defer wg.Done()
			defer close(queue)
			ctx := context.Background()
			for j := 0; j < m; j++ {
				g := 2*j + c
				due := start.Add(time.Duration(g) * period)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				id := base + uint64(g)
				op, key := l.req(id)
				t0 := time.Now()
				fut, err := srv.Submit(ctx, op, key)
				subs[c] = append(subs[c], time.Since(t0).Seconds()*1e6)
				if err != nil {
					over := errors.Is(err, epoch.ErrOverloaded)
					tallies[c].record(!over, over, id)
					continue
				}
				queue <- pending{fut, due, id}
			}
		}(c)
		go func(c int) {
			defer wg.Done()
			for pd := range queue {
				<-pd.fut.Done()
				now := time.Now()
				ress[c] = append(ress[c], now.Sub(pd.due).Seconds()*1e3)
				res := pd.fut.Result()
				op, key := l.req(pd.id)
				wrong := res.Err != nil || (op != epoch.OpFind && !res.OK) ||
					(op == epoch.OpFind && res.OK && res.Value != key) ||
					(op == epoch.OpFind && !res.OK && res.Value != core.Empty)
				tallies[c].record(wrong, false, pd.id)
				if len(ress[c])%16 == 0 {
					tr.record("epoch:Submit", 0, 1, pd.due, now)
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < serveConns; c++ {
		submit = append(submit, subs[c]...)
		resolve = append(resolve, ress[c]...)
		t.add(tallies[c])
	}
	return submit, resolve, t
}

// kernelProbe applies epochs of the given size and the request mix
// directly to a sharded table holding the steady-state key set (inserts
// outnumber deletes two to one, so about two thirds of the keys are
// live), checking each result against a bitmap model. It returns one
// epoch's keys, for the dispatch and partition probes.
func kernelProbe(p *pass, l load, shards, batch int) []uint64 {
	tbl := core.NewShardedTable[core.SetOps](1<<20, shards)
	tbl.Clear()
	model := make([]bool, l.keySpace+1)
	var prefill []uint64
	for k := uint64(1); k <= l.keySpace; k++ {
		if hashx.At(p.cfg.seed+3, int(k))%3 != 0 {
			prefill = append(prefill, k)
			model[k] = true
		}
	}
	live := len(prefill)
	p.attempt(live)
	added := tbl.InsertAll(prefill)
	p.expect(added == live, absInt(added-live), "core:ShardedTable: prefill added %d keys, want %d", added, live)
	var ins, del, fnd, all []uint64
	tr := p.tr
	start := time.Now()
	p.referenceSpan()
	lastRef := time.Now()
	for r := 0; r < 16 || time.Since(start) < p.cfg.budget()/20; r++ {
		if time.Since(lastRef) > 20*time.Millisecond {
			p.referenceSpan()
			lastRef = time.Now()
		}
		ins, del, fnd, all = ins[:0], del[:0], fnd[:0], all[:0]
		for i := 0; i < batch; i++ {
			id := phase(8) + uint64(r*batch+i)
			op, key := l.req(id)
			all = append(all, key)
			switch op {
			case epoch.OpInsert:
				ins = append(ins, key)
			case epoch.OpDelete:
				del = append(del, key)
			default:
				fnd = append(fnd, key)
			}
		}
		wantAdded, wantDeleted, wantHits := 0, 0, 0
		for _, k := range ins {
			if !model[k] {
				model[k] = true
				wantAdded++
			}
		}
		for _, k := range del {
			if model[k] {
				model[k] = false
				wantDeleted++
			}
		}
		for _, k := range fnd {
			if model[k] {
				wantHits++
			}
		}
		live += wantAdded - wantDeleted
		var added, deleted, hits int
		tr.call("core:ShardedTable.InsertAll", 0, len(ins), func() { added = tbl.InsertAll(ins) })
		tr.call("core:ShardedTable.DeleteAll", 0, len(del), func() { deleted = tbl.DeleteAll(del) })
		tr.call("core:ShardedTable.ContainsAll", 0, len(fnd), func() { hits = tbl.ContainsAll(fnd) })
		p.attempt(batch)
		p.expect(added == wantAdded && deleted == wantDeleted && hits == wantHits, 1,
			"core:ShardedTable: epoch results (%d, %d, %d), want (%d, %d, %d)", added, deleted, hits, wantAdded, wantDeleted, wantHits)
		if r%4 == 0 {
			var elems []uint64
			tr.call("core:ShardedTable.Elements", 0, live, func() { elems = tbl.Elements() })
			p.attempt(len(elems))
			p.expect(len(elems) == live, absInt(len(elems)-live), "core:ShardedTable: Elements returned %d keys, want %d", len(elems), live)
		}
	}
	p.referenceSpan()
	return all
}
