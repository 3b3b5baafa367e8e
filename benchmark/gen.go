package main

import (
	"encoding/binary"
	"hash/fnv"

	core "repro/internal/core"
	wgen "repro/internal/workload"
)

// Key and value scheme, shared by every workload.
//
// Resident key i of a run is mix64(i + seed*keyStride): a bijection, so
// keys are distinct, land in pseudo-random bins under the default modulo
// hash, and can be mapped back to i by the checker (unmix64). Every value
// stored under key k is tag48(k)<<16 | low16, so any read of k can be
// checked without knowing which write it observed.

const keyStride = 1 << 40

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unmix64 inverts mix64 (the multipliers are the modular inverses of
// mix64's; a shift-xor by s is undone by repeating it until the shifts
// run off the word).
func unmix64(z uint64) uint64 {
	z ^= z>>31 ^ z>>62
	z *= 0x319642b2d24d8ec3
	z ^= z>>27 ^ z>>54
	z *= 0x96de1b173f119089
	z ^= z>>30 ^ z>>60
	return z - 0x9e3779b97f4a7c15
}

// tag48 is the 48-bit check word every value of key k carries.
func tag48(k uint64) uint64 { return mix64(k^0x5bd1e9955bd1e995) >> 16 }

func valueOf(k uint64, low16 uint16) uint64 { return tag48(k)<<16 | uint64(low16) }

func tagOK(k, v uint64) bool { return v>>16 == tag48(k) }

// keyspace maps resident key indexes to keys for one seed.
type keyspace struct {
	off uint64
	n   uint64
}

func newKeyspace(seed uint64, n uint64) keyspace { return keyspace{off: seed * keyStride, n: n} }

func (ks keyspace) key(i uint64) uint64 { return mix64(i + ks.off) }

// index returns the resident index of k; ok is false for fresh keys.
func (ks keyspace) index(k uint64) (uint64, bool) {
	i := unmix64(k) - ks.off
	return i, i < ks.n
}

// op is one generated request: the kind and the key. Values are derived
// from the key when the op is issued.
type op struct {
	kind core.OpKind
	key  uint64
}

// mix is a workload's op mix in percent. churn slots alternate Delete of
// the worker's oldest live fresh key and Insert of a new worker-private
// one, so the population is stationary and every outcome is known.
type mix struct{ get, put, churn int }

type dist int

const (
	uniform dist = iota
	zipf
)

// churnLive is how many fresh keys each worker keeps live.
const churnLive = 4096

// genSpec is everything a stream depends on.
type genSpec struct {
	seed    uint64
	keys    uint64
	dist    dist
	mix     mix
	workers int
	// ownWrites restricts worker w's Puts to resident indexes ≡ w (mod
	// workers), so each key has one writer and a per-key sequence is
	// meaningful. ownReads does the same to its Gets, so that no key is
	// shared between workers at all.
	ownWrites bool
	ownReads  bool
}

const zipfTheta = 0.99

// stream is one worker's materialised requests. It is cyclic: replaying
// ops from the start after the end keeps every outcome valid, provided
// ring is live in the table before the first pass, so a run of any
// duration reuses one bounded slice.
type stream struct {
	ops []op
	// ring is the fresh keys that must be live before ops first runs: the
	// cycle's last churnLive inserts, which its first Deletes remove.
	ring []uint64
}

// genStream materialises worker w's stream of n ops.
func genStream(gs genSpec, w, n int) stream {
	ks := newKeyspace(gs.seed, gs.keys)
	rng := wgen.NewRNG(gs.seed*1000003 + uint64(w)*7919 + 1)
	var zf *wgen.Zipf
	if gs.dist == zipf {
		zf = wgen.NewZipf(gs.seed*1000003+uint64(w)*7919+2, gs.keys, zipfTheta)
	}
	draw := func(own bool) uint64 {
		var idx uint64
		if zf != nil {
			// The generator's float arithmetic can round up to n.
			idx = min(zf.Key(), gs.keys-1)
		} else {
			idx = rng.Uint64n(gs.keys)
		}
		if own {
			idx -= idx % uint64(gs.workers)
			idx = min(idx+uint64(w), gs.keys-uint64(gs.workers)+uint64(w))
		}
		return idx
	}
	ops := make([]op, n)
	var churn []int // positions of churn slots
	for i := range ops {
		v := int(rng.Uint64n(100))
		switch {
		case v < gs.mix.get:
			ops[i] = op{core.OpGet, ks.key(draw(gs.ownReads))}
		case v < gs.mix.get+gs.mix.put:
			ops[i] = op{core.OpPut, ks.key(draw(gs.ownWrites))}
		default:
			churn = append(churn, i)
		}
	}
	if len(churn)%2 == 1 {
		// An unpaired trailing Delete would break the cycle: make it a Get.
		last := churn[len(churn)-1]
		ops[last] = op{core.OpGet, ks.key(draw(gs.ownReads))}
		churn = churn[:len(churn)-1]
	}
	// Churn slots alternate Delete #j, Insert #j. Insert #j adds fresh[j];
	// Delete #j removes the key inserted live inserts earlier, reaching
	// back into the previous pass for the first live of them.
	m := len(churn) / 2
	live := min(churnLive, m)
	fk := wgen.NewFreshKeys(w, gs.seed*keyStride)
	fresh := make([]uint64, m)
	for j := range fresh {
		fresh[j] = fk.Key()
	}
	for j := 0; j < m; j++ {
		ops[churn[2*j]] = op{core.OpDelete, fresh[(j+m-live)%m]}
		ops[churn[2*j+1]] = op{core.OpInsert, fresh[j]}
	}
	return stream{ops: ops, ring: fresh[m-live:]}
}

// streamHash fingerprints a stream byte for byte.
func streamHash(ops []op) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, o := range ops {
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint64(b[1:], o.key)
		h.Write(b[:])
	}
	return h.Sum64()
}
