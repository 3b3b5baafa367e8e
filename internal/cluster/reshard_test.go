package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/server"

	core "repro/internal/core"
)

// TestReshardLiveMigration is the live-migration property test: a
// replicated R=2 W=2 cluster pipe runs a mixed key-value workload while a
// fourth shard is added mid-stream, and — during the handoff window — one
// of the source shards is killed and restarted from its WAL (the
// in-process stand-in for kill -9; the smoke script does the literal
// one). Invariants:
//
//   - every enqueued op completes exactly once, in per-key program order,
//     straight through the ring flip;
//   - every successful read is explainable by the per-key oracle;
//   - the membership snapshot stays consistent: the new shard appears
//     together with the epoch bump, never a torn view;
//   - after the flip, every key's value matches the oracle not just
//     through the cluster but on EVERY member of its new replica set,
//     read directly — the migration really moved the data.
func TestReshardLiveMigration(t *testing.T) {
	shards := make([]*durableShard, 4)
	addrs := make([]string, 4)
	for i := range shards {
		shards[i] = startDurableShard(t, "", t.TempDir())
		addrs[i] = shards[i].addr
	}
	defer func() {
		for _, sh := range shards {
			sh.stop()
		}
	}()

	clu, err := Dial(addrs[:3], Opts{
		Replicas:      2,
		WriteQuorum:   2,
		Retry:         server.RetryPolicy{Max: 3, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 11},
		DownAfter:     2,
		ProbeInterval: 20 * time.Millisecond,
		ReadTimeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()

	if names, epoch := clu.topo.Members(); len(names) != 3 || epoch != 1 {
		t.Fatalf("initial Members() = (%v, %d), want 3 names at epoch 1", names, epoch)
	}

	const nkeys = 128
	type keyState struct {
		pending []uint64
		reads   int
		acked   uint64
		hasAck  bool
		indet   map[uint64]bool
	}
	ks := make([]*keyState, nkeys)
	for i := range ks {
		ks[i] = &keyState{indet: map[uint64]bool{}}
	}
	completions, enqueued := 0, 0

	p, err := clu.Pipe(core.PipeOpts{Window: 8, OnComplete: func(cc core.Completion) {
		completions++
		st := ks[cc.Key]
		switch cc.Kind {
		case core.OpInsert, core.OpPut:
			if len(st.pending) == 0 {
				t.Fatalf("key %d: write completion with no pending write (dup or reorder)", cc.Key)
			}
			v := st.pending[0]
			st.pending = st.pending[1:] // per-key program order
			if cc.Err == nil {
				st.acked, st.hasAck = v, true
				st.indet = map[uint64]bool{}
			} else {
				st.indet[v] = true
			}
		case core.OpGet:
			if st.reads <= 0 {
				t.Fatalf("key %d: read completion with no pending read", cc.Key)
			}
			st.reads--
			if cc.Err == nil && cc.OK {
				explainable := (st.hasAck && cc.Value == st.acked) || st.indet[cc.Value]
				for _, v := range st.pending {
					if v == cc.Value {
						explainable = true
						break
					}
				}
				if !explainable {
					t.Fatalf("key %d: read %d not explainable (acked %d, %d indet, %d pending)",
						cc.Key, cc.Value, st.acked, len(st.indet), len(st.pending))
				}
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}

	rng := uint64(0x2545f4914f6cdd1d)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	var seq uint64 = 1
	step := func() {
		k := next(nkeys)
		st := ks[k]
		enqueued++
		if next(100) < 30 {
			st.reads++
			if err := p.Get(k); err != nil {
				t.Fatalf("Get enq: %v", err)
			}
		} else {
			seq++
			st.pending = append(st.pending, seq)
			var err error
			if len(st.pending) == 1 && !st.hasAck {
				err = p.Insert(k, seq)
			} else {
				err = p.Put(k, seq)
			}
			if err != nil {
				t.Fatalf("write enq: %v", err)
			}
		}
	}

	// Warm up: real data on the source shards before the migration.
	for i := 0; i < 2000; i++ {
		step()
	}

	// Kick the membership change from a control goroutine (the data
	// goroutine must keep pumping: adopting published generations is what
	// lets the coordinator's quiesce fence pass).
	reshardDone := make(chan error, 1)
	// hold parks the coordinator in the handoff quiesce — one undelivered
	// pipelined op under the old generation — so the sync ops below
	// provably run inside the handoff window, before the bulk copy or any
	// journal swap could account for what they leave behind.
	hold, _ := clu.topo.NewClient()
	defer hold.Close()
	hp, err := hold.Pipe(core.PipeOpts{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := hp.Get(0); err != nil {
		t.Fatal(err)
	}
	go func() { reshardDone <- clu.AddShard(addrs[3]) }()

	// A sync op is a pipe of one, so a sync write to a moving key during
	// the handoff is journaled and double-written like a pipelined one. mk
	// is outside the oracle's key range and gains the new shard (slot 3) as
	// an owner.
	for deadline := time.Now().Add(10 * time.Second); clu.topo.tab.Load().phase != phaseHandoff; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("handoff window never opened")
		}
	}
	ht := clu.topo.tab.Load()
	mk := uint64(nkeys)
	for incoming := false; !incoming; {
		mk++
		for _, s := range replicasOn(ht.next, clu.topo.keyh(mk), 2, nil) {
			incoming = incoming || s == 3
		}
	}
	sc, _ := clu.topo.NewClient()
	defer sc.Close()
	if _, ins, err := sc.Insert(mk, 1); err != nil || !ins {
		t.Fatalf("handoff sync Insert(%d): (%v,%v)", mk, ins, err)
	}
	if prev, ok, err := sc.Put(mk, 2); err != nil || !ok || prev != 1 {
		t.Fatalf("handoff sync Put(%d) = (%d,%v,%v), want (1,true,nil)", mk, prev, ok, err)
	}
	if !clu.topo.journaled(mk) {
		t.Fatalf("sync Put on moving key %d during handoff was not journaled", mk)
	}
	incomingOwner, err := server.DialV2(addrs[3], server.ClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer incomingOwner.Close()
	if v, ok, err := incomingOwner.Get(mk); err != nil || !ok || v != 2 {
		t.Fatalf("incoming owner holds (%d,%v,%v) for key %d, want 2: sync write was not double-written", v, ok, err, mk)
	}
	if err := hp.Close(); err != nil { // release the coordinator
		t.Fatal(err)
	}

	// Pump through the handoff; once the double-write window is open,
	// kill one source shard and restart it from its WAL on the same
	// address — the bulk copy must fail over to the surviving replica and
	// acked writes must keep being acked (or complete indeterminate,
	// never silently lost).
	killed := false
	var reshardErr error
	waited := 0
	for done := false; !done; {
		for i := 0; i < 200; i++ {
			step()
		}
		if !killed && clu.topo.tab.Load().phase != phaseNormal {
			shards[0].stop()
			shards[0] = startDurableShard(t, addrs[0], shards[0].dir)
			killed = true
		}
		select {
		case reshardErr = <-reshardDone:
			done = true
		default:
			waited++
			if waited > 100000 {
				t.Fatal("reshard never finished")
			}
		}
	}
	if reshardErr != nil {
		t.Fatalf("AddShard: %v", reshardErr)
	}
	if !killed {
		t.Log("note: reshard finished before a handoff window was observed; source-kill variant not exercised this run")
	}

	if names, epoch := clu.topo.Members(); len(names) != 4 || epoch != 2 {
		t.Fatalf("post-reshard Members() = (%v, %d), want 4 names at epoch 2", names, epoch)
	}

	// Post-flip traffic on the new ring, then heal: drive until every op
	// completed and a clean round of writes acks on every key.
	for i := 0; i < 2000; i++ {
		step()
	}
	deadline := time.Now().Add(10 * time.Second)
	for healed := false; !healed; {
		if time.Now().After(deadline) {
			t.Fatal("cluster did not heal within 10s of the reshard completing")
		}
		for i := 0; i < 200; i++ {
			step()
		}
		if err := p.Flush(); err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		healed = true
		for _, st := range ks {
			if len(st.pending) != 0 || st.reads != 0 {
				healed = false
			}
		}
		if healed && clu.topo.det.anyDown() {
			healed = false
			time.Sleep(10 * time.Millisecond)
		}
	}
	for k := uint64(0); k < nkeys; k++ {
		seq++
		if err := p.Put(k, seq); err != nil {
			t.Fatalf("final Put enq: %v", err)
		}
		ks[k].pending = append(ks[k].pending, seq)
		enqueued++
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	for k, st := range ks {
		if len(st.pending) != 0 {
			t.Fatalf("key %d: %d writes never completed", k, len(st.pending))
		}
		if !st.hasAck || len(st.indet) != 0 {
			t.Fatalf("key %d: final write did not ack cleanly", k)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if completions != enqueued {
		t.Fatalf("%d completions for %d enqueued ops", completions, enqueued)
	}

	// The data moved: every member of each key's replica set on the NEW
	// ring serves the oracle value over a direct connection.
	tab := clu.topo.tab.Load()
	direct := make(map[int]*server.Client)
	defer func() {
		for _, d := range direct {
			d.Close()
		}
	}()
	for k := uint64(0); k < nkeys; k++ {
		v, ok, err := clu.Get(k)
		if err != nil || !ok || v != ks[k].acked {
			t.Fatalf("final cluster Get(%d) = (%d,%v,%v), want %d", k, v, ok, err, ks[k].acked)
		}
		for _, slot := range clu.replicasFor(k, nil) {
			d := direct[slot]
			if d == nil {
				d, err = server.DialV2(tab.names[slot], server.ClientOpts{})
				if err != nil {
					t.Fatalf("direct dial %s: %v", tab.names[slot], err)
				}
				direct[slot] = d
			}
			v, ok, err := d.Get(k)
			if err != nil || !ok || v != ks[k].acked {
				t.Fatalf("key %d on replica %s: (%d,%v,%v), want %d — migration lost it",
					k, tab.names[slot], v, ok, err, ks[k].acked)
			}
		}
	}
	for _, slot := range clu.replicasFor(mk, nil) {
		d, err := server.DialV2(tab.names[slot], server.ClientOpts{})
		if err != nil {
			t.Fatalf("direct dial %s: %v", tab.names[slot], err)
		}
		v, ok, err := d.Get(mk)
		d.Close()
		if err != nil || !ok || v != 2 {
			t.Fatalf("handoff-written key %d on replica %s: (%d,%v,%v), want 2", mk, tab.names[slot], v, ok, err)
		}
	}
	if moved := clu.topo.MovedKeys(); moved == 0 {
		t.Fatal("MovedKeys() == 0 after a reshard that must have migrated data")
	}
}

// TestReshardValidation: impossible membership changes are refused up
// front, with the ring untouched.
func TestReshardValidation(t *testing.T) {
	shards := make([]*durableShard, 2)
	addrs := make([]string, 2)
	for i := range shards {
		shards[i] = startDurableShard(t, "", t.TempDir())
		addrs[i] = shards[i].addr
	}
	defer func() {
		for _, sh := range shards {
			sh.stop()
		}
	}()
	clu, err := Dial(addrs, Opts{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()

	if err := clu.RemoveShard(addrs[0]); err == nil {
		t.Fatal("RemoveShard below Replicas should fail")
	}
	if err := clu.AddShard(addrs[1]); err == nil {
		t.Fatal("AddShard of an existing member should fail")
	}
	if err := clu.RemoveShard("nonsuch:1"); err == nil {
		t.Fatal("RemoveShard of a non-member should fail")
	}
	if epoch := clu.topo.Epoch(); epoch != 1 {
		t.Fatalf("failed validations bumped the epoch to %d", epoch)
	}
	// The ring still routes after the refused changes.
	if _, _, err := clu.Get(1); err != nil {
		t.Fatalf("Get after refused reshard: %v", err)
	}
}

// TestReshardRemoveShard: shrinking the cluster migrates the removed
// shard's ranges to the survivors before it leaves the ring.
func TestReshardRemoveShard(t *testing.T) {
	shards := make([]*durableShard, 3)
	addrs := make([]string, 3)
	for i := range shards {
		shards[i] = startDurableShard(t, "", t.TempDir())
		addrs[i] = shards[i].addr
	}
	defer func() {
		for _, sh := range shards {
			sh.stop()
		}
	}()
	clu, err := Dial(addrs, Opts{Replicas: 2, WriteQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()

	const n = 500
	for k := uint64(0); k < n; k++ {
		if _, ins, err := clu.Insert(k, k+7); err != nil || !ins {
			t.Fatalf("Insert(%d): (%v,%v)", k, ins, err)
		}
	}
	if err := clu.RemoveShard(addrs[2]); err != nil {
		t.Fatalf("RemoveShard: %v", err)
	}
	if names, epoch := clu.topo.Members(); len(names) != 2 || epoch != 2 {
		t.Fatalf("Members() = (%v, %d), want 2 names at epoch 2", names, epoch)
	}
	// The removed shard can really go away now.
	shards[2].stop()
	for k := uint64(0); k < n; k++ {
		v, ok, err := clu.Get(k)
		if err != nil || !ok || v != k+7 {
			t.Fatalf("Get(%d) after shrink = (%d,%v,%v), want %d", k, v, ok, err, k+7)
		}
	}
	if fmt.Sprint(clu.Names()) == fmt.Sprint(addrs) {
		t.Fatal("Names() still lists the removed shard")
	}
}

// TestCopyPathsPickOneWinner: the reshard journal copy and scrub repair
// are two callers of one converge body, and each case runs through both
// — the journal copy of a key moving to a third shard, then repair across
// its two current owners. With R=2:
//
//   - versionless: on shards without core.Config.TrackVersions every copy
//     ties at version 0. The primary lacks a key the secondary holds — an
//     acked W=1 write the primary missed. The journal copy must write the
//     key to its new owner, not delete it there, and repair must restore
//     it on the primary, not delete it on the secondary.
//   - primary-delete: on TrackVersions shards the primary deleted the key,
//     so its count is higher, while the secondary and the incoming owner
//     hold a stale copy. The journal copy must delete the key on the
//     incoming owner, and repair must delete it on the secondary.
//   - secondary-newer: the secondary holds the higher-count value. It must
//     win on the incoming owner and on the primary.
func TestCopyPathsPickOneWinner(t *testing.T) {
	const stale, fresh = 77, 78
	cases := []struct {
		name     string
		versions bool
		// seed writes the case's copies through each shard's handle;
		// primary, secondary and incoming name the key's shards.
		seed func(t *testing.T, key uint64, primary, secondary, incoming *core.Handle)
		// want is the value every checked shard must hold; 0 = absent.
		want uint64
	}{
		{"versionless", false, func(t *testing.T, key uint64, p, s, in *core.Handle) {
			mustInsert(t, s, key, stale)
		}, stale},
		{"primary-delete", true, func(t *testing.T, key uint64, p, s, in *core.Handle) {
			mustInsert(t, p, key, stale)
			p.Delete(key)
			mustInsert(t, s, key, stale)
			mustInsert(t, in, key, stale)
		}, 0},
		{"secondary-newer", true, func(t *testing.T, key uint64, p, s, in *core.Handle) {
			mustInsert(t, p, key, stale)
			mustInsert(t, s, key, stale)
			s.Put(key, fresh)
		}, fresh},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			names := []string{"s0", "s1", "s2"}
			tables := make(map[string]*core.Table)
			handles := make(map[string]*core.Handle)
			for _, n := range names {
				tables[n] = core.MustNew(core.Config{Bins: 1 << 8, Resizable: true, MaxThreads: 8, TrackVersions: tc.versions})
				handles[n] = tables[n].MustHandle()
			}
			open := func(name string) (core.Store, error) { return tables[name].Store() }
			stores := []core.Store{tables["s0"].MustStore(), tables["s1"].MustStore()}
			c, err := New(names[:2], stores, Opts{Replicas: 2, OpenShard: open})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			topo := c.topo
			tab := topo.tab.Load()
			p, err := topo.plan(tab, names[2:], nil)
			if err != nil {
				t.Fatal(err)
			}
			ht := &ringTab{gen: tab.gen + 1, phase: phaseHandoff, names: p.names, dead: p.deadServing, ring: tab.ring, next: p.nextRing}

			// A key the new shard will own.
			var key uint64
			var owners []int
			for k := uint64(1); ; k++ {
				h := topo.keyh(k)
				next := replicasOn(p.nextRing, h, 2, nil)
				if next[0] == 2 || next[1] == 2 {
					key, owners = k, replicasOn(tab.ring, h, 2, nil)
					break
				}
			}
			tc.seed(t, key, handles[names[owners[0]]], handles[names[owners[1]]], handles["s2"])
			holdsWant := func(name string) bool {
				v, ok := handles[name].Get(key)
				if tc.want == 0 {
					return !ok
				}
				return ok && v == tc.want
			}

			topo.tab.Store(ht) // the handoff view, whose slot table names s2
			if err := topo.copyJournal(ht, map[uint64]struct{}{key: {}}); err != nil {
				t.Fatal(err)
			}
			topo.tab.Store(tab)
			if !holdsWant("s2") {
				t.Fatalf("journal copy left key %d on its new owner s2 not holding %d (0 = absent)", key, tc.want)
			}
			if got := topo.MovedKeys(); got != 1 {
				t.Fatalf("MovedKeys = %d after one journaled key, want 1", got)
			}

			sb := &scrubber{t: topo, stores: shardStores{t: topo, open: topo.openAdmin}}
			defer sb.stores.close()
			sb.repairKey(key)
			for _, o := range owners {
				if !holdsWant(names[o]) {
					t.Fatalf("repair left key %d on %s not holding %d (0 = absent)", key, names[o], tc.want)
				}
			}
		})
	}
}

func mustInsert(t *testing.T, h *core.Handle, key, val uint64) {
	t.Helper()
	if _, err := h.Insert(key, val); err != nil {
		t.Fatal(err)
	}
}
