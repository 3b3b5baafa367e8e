package dlht

import (
	"errors"
	"fmt"
	"net/url"
	"strings"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wal"
)

// ErrBadSpec reports an Open spec whose scheme or shape Open does not
// understand. It wraps the detailed message, so errors.Is(err, ErrBadSpec)
// catches every malformed-spec failure regardless of which part was wrong.
var ErrBadSpec = errors.New("dlht: bad store spec")

// Durable backend types, re-exported.
type (
	// DurableStore is the concrete type behind wal: specs — an in-memory
	// table whose effective mutations are group-committed to a redo log in
	// a directory, recovered on Open. Beyond the Store surface it exposes
	// Table, Log, Snapshot and RecoverStats; reach them by type-asserting
	// an Open result.
	DurableStore = wal.Store
	// WALOptions tunes a DurableStore (segment rotation and automatic
	// snapshot thresholds); pass via WithWALOptions.
	WALOptions = wal.Options
	// RecoverStats reports what a DurableStore's recovery found: the
	// snapshot it loaded, segments and records replayed, torn bytes
	// truncated.
	RecoverStats = wal.RecoverStats

	// Status is a wire response status; surfaced by
	// Client's raw protocol methods. StatusErr maps one onto the error
	// sentinels above.
	Status = server.Status
)

// Wire statuses, re-exported so Client's raw surface is usable without
// importing internal packages.
const (
	StatusOK           = server.StatusOK
	StatusNotFound     = server.StatusNotFound
	StatusExists       = server.StatusExists
	StatusShadow       = server.StatusShadow
	StatusFull         = server.StatusFull
	StatusReservedKey  = server.StatusReservedKey
	StatusWrongMode    = server.StatusWrongMode
	StatusValueSize    = server.StatusValueSize
	StatusNamespace    = server.StatusNamespace
	StatusBadVersion   = server.StatusBadVersion
	StatusUnknownTable = server.StatusUnknownTable
	StatusBusy         = server.StatusBusy
	StatusBadRequest   = server.StatusBadRequest
)

// StatusErr maps a wire status onto its sentinel error: nil for the two
// non-error statuses (StatusOK and StatusNotFound — a miss is not an
// error), the matching core sentinel where one exists (ErrExists, ErrFull,
// ...), and the transport sentinels (ErrBusy, ErrUnknownTable, ...) for
// statuses that only exist on the wire. It is the one Status→error mapping
// on the public surface; every backend's errors flow through the same
// sentinels, so errors.Is-based handling is backend-independent.
func StatusErr(s Status) error { return s.Err() }

// openConfig collects what the Option funcs set.
type openConfig struct {
	cfg     Config
	client  ClientOpts
	cluster ClusterOpts
	wal     WALOptions
}

// Option configures Open. Options that do not apply to the spec's backend
// are ignored (a tcp:// spec ignores WithConfig, a mem: spec ignores
// WithClientOpts), so one option slice can serve a spec that varies at
// runtime.
type Option func(*openConfig)

// WithConfig sets the table configuration for the mem: and wal: backends
// (the zero Config is a usable Inlined table). A wal: directory must be
// reopened under the same mode configuration it was written with.
func WithConfig(cfg Config) Option {
	return func(oc *openConfig) { oc.cfg = cfg }
}

// WithClientOpts sets the connection options for the tcp:// backend
// (features, read/write deadlines). A table named in the spec path
// overrides ClientOpts.Table.
func WithClientOpts(o ClientOpts) Option {
	return func(oc *openConfig) { oc.client = o }
}

// WithClusterOpts sets the sharding options for the cluster: backend:
// table selector, virtual nodes, per-shard window, deadlines, and the
// fault-tolerance knobs — Replicas/WriteQuorum, the per-connection
// redial policy (Retry), and the failure detector (DownAfter,
// ProbeInterval, Probe). WithReplicas and WithRetry are shorthands for
// the common subset.
func WithClusterOpts(o ClusterOpts) Option {
	return func(oc *openConfig) { oc.cluster = o }
}

// WithReplicas makes the cluster: backend replicate each key to r shards
// (the ring owner plus its r-1 clockwise successors), acking writes
// after w replica acks; w = 0 means write-all. With w = r an acked write
// survives any single-shard loss and reads never miss it after
// failover; w < r keeps writes available through r-w shard failures at
// the cost of replica divergence until read repair or the scrubber
// (Topology.StartScrub) converges the laggards. Shorthand
// for the Replicas/WriteQuorum fields of WithClusterOpts.
func WithReplicas(r, w int) Option {
	return func(oc *openConfig) {
		oc.cluster.Replicas = r
		oc.cluster.WriteQuorum = w
	}
}

// WithRetry sets the transparent redial-and-retry policy for the tcp://
// backend's synchronous helpers, and for the cluster: backend both every
// shard connection's redial and the retry budget of its synchronous ops
// (there the zero policy already means DefaultRetry; pass Max < 0 to
// disable). Retried writes are at-least-once: a retried
// Insert whose first attempt applied but whose ack was lost reports the
// key as already present.
func WithRetry(p RetryPolicy) Option {
	return func(oc *openConfig) {
		oc.client.Retry = p
		oc.cluster.Retry = p
	}
}

// WithWALOptions sets the durability tuning for the wal: backend.
func WithWALOptions(o WALOptions) Option {
	return func(oc *openConfig) { oc.wal = o }
}

// Open opens a Store from a spec string — one entry point over every
// backend:
//
//	s, _ := dlht.Open("mem:")                         // in-process table
//	s, _ := dlht.Open("tcp://host:4040/users")        // one dlht-server, table "users"
//	s, _ := dlht.Open("cluster:a:4040,b:4040,c:4040") // consistent-hashed shards
//	s, _ := dlht.Open("wal:/var/lib/dlht/users",      // durable: group-commit WAL
//	        dlht.WithConfig(dlht.Config{Resizable: true}))
//
// A malformed or unknown spec fails with an error wrapping ErrBadSpec; a
// backend that fails to open (dial refused, unknown table, unrecoverable
// directory) returns that backend's error wrapped with the spec, so
// errors.Is sees through to the underlying sentinel (ErrUnknownTable,
// net.Error, ...). A cluster: backend opens its members lazily, on each
// shard's first op: a member that is down is not an Open error but a
// retryable failure (IsRetryable) of the ops routed to it, after the
// retry budget; the failure detector then marks it down, reads fail over
// to another replica, and a member that comes up later is dialed then.
// Like every Store, the result is a per-goroutine object.
//
// Open is the only constructor: a caller that needs a backend's concrete
// type asserts it (tcp:// yields a *Client, cluster: a *Cluster, wal: a
// *DurableStore).
func Open(spec string, opts ...Option) (Store, error) {
	var oc openConfig
	for _, o := range opts {
		o(&oc)
	}
	switch {
	case spec == "mem:" || spec == "mem":
		t, err := New(oc.cfg)
		if err != nil {
			return nil, fmt.Errorf("dlht: open %q: %w", spec, err)
		}
		return t.Store()

	case strings.HasPrefix(spec, "tcp://"):
		u, err := url.Parse(spec)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("%w: %q (want tcp://host:port[/table])", ErrBadSpec, spec)
		}
		co := oc.client
		if tbl := strings.TrimPrefix(u.Path, "/"); tbl != "" {
			co.Table = tbl
		}
		cl, err := server.DialV2(u.Host, co)
		if err != nil {
			return nil, fmt.Errorf("dlht: open %q: %w", spec, err)
		}
		return cl, nil

	case strings.HasPrefix(spec, "cluster:"):
		rest := strings.TrimPrefix(spec, "cluster:")
		if rest == "" {
			return nil, fmt.Errorf("%w: %q (want cluster:addr,addr,...)", ErrBadSpec, spec)
		}
		c, err := cluster.Dial(strings.Split(rest, ","), oc.cluster)
		if err != nil {
			return nil, fmt.Errorf("dlht: open %q: %w", spec, err)
		}
		return c, nil

	case strings.HasPrefix(spec, "wal:"):
		dir := strings.TrimPrefix(spec, "wal:")
		if dir == "" {
			return nil, fmt.Errorf("%w: %q (want wal:/path/to/dir)", ErrBadSpec, spec)
		}
		ds, err := wal.Open(dir, oc.cfg, oc.wal)
		if err != nil {
			return nil, fmt.Errorf("dlht: open %q: %w", spec, err)
		}
		return ds, nil
	}
	return nil, fmt.Errorf("%w: %q (schemes: mem:, tcp://, cluster:, wal:)", ErrBadSpec, spec)
}
