package core

import "errors"

// Store is the backend-independent DLHT surface: the synchronous op set
// plus the completion-driven pipelined surface (Pipe). It is implemented by
//
//   - the in-process table ((*Table).Store, a Handle adapter),
//   - the network client (repro/internal/server.Client), and
//   - the sharded client (repro/internal/cluster.Cluster),
//
// so workload drivers written against Store run unmodified whether the
// table is local, behind one socket, or consistent-hashed across N servers.
// The top-level dlht package re-exports Store together with constructors
// for all three backends.
//
// Like Handle and the network client, a Store is a per-goroutine object:
// open one per worker. Errors returned by remote backends map onto the
// same sentinels local tables return (ErrExists, ErrFull, ...), so
// errors.Is-based handling is backend-independent.
//
// The miss/err split mirrors the sync helpers everywhere: a plain miss
// (Get/Put/Delete on an absent key, Insert on a present one) is reported
// through the bool with a nil error; err is reserved for transport
// failures and table-level refusals (ErrFull, ErrWrongMode, ...).
type Store interface {
	// Get reads key; ok reports whether it was present.
	Get(key uint64) (val uint64, ok bool, err error)
	// Put overwrites an existing key and returns its previous value; ok is
	// false (with a nil error) when the key was absent.
	Put(key, val uint64) (prev uint64, ok bool, err error)
	// Insert adds a new key. A duplicate reports the existing value with
	// inserted=false and a nil error; other failures surface through err.
	Insert(key, val uint64) (existing uint64, inserted bool, err error)
	// Delete removes key and returns its previous value; ok is false when
	// the key was absent.
	Delete(key uint64) (prev uint64, ok bool, err error)
	// Pipe opens the completion-driven pipelined surface: enqueue requests
	// one at a time, receive in-order completions through opts.OnComplete.
	// While a Pipe is open the Store's synchronous methods must not be
	// called (the same exclusivity Handle demands while a Pipeline has
	// requests in flight).
	Pipe(opts PipeOpts) (Pipe, error)
	// Close releases the backend resources (table handle, connection(s)).
	Close() error
}

// Completion is the result of one pipelined Store request, the
// backend-independent form of a completed Op.
type Completion struct {
	Kind OpKind
	Key  uint64
	// Value carries the read value (Get), previous value (Put/Delete) or
	// existing value (duplicate Insert).
	Value uint64
	// OK reports per-kind success, as in Op.OK.
	OK bool
	// Err carries table-level failures (ErrExists, ErrFull, ...), mapped
	// onto the same sentinels for every backend. A plain miss is OK=false
	// with a nil Err.
	Err error
}

// Completion returns op's outcome as the backend-independent Completion.
func (op *Op) Completion() Completion {
	return Completion{Kind: op.Kind, Key: op.Key, Value: op.Result, OK: op.OK, Err: op.Err}
}

// PipeOpts configures Store.Pipe.
type PipeOpts struct {
	// Window bounds how many requests are in flight between enqueue and
	// completion. 0 selects the backend's default (the table's resolved
	// prefetch window locally, 16 for network clients). Remote backends
	// also use it to bound in-flight wire requests, so socket buffers can
	// never deadlock a deep enqueue run.
	Window int
	// OnComplete is invoked for every request as it completes. Completions
	// fire in enqueue order per backend shard: a single table or
	// connection preserves total enqueue order, a Cluster preserves it per
	// shard (and therefore per key). The Completion is valid only for the
	// duration of the call.
	OnComplete func(Completion)
}

// Pipe is the completion-driven pipelined surface of a Store — the
// backend-independent form of Handle.Pipeline. Enqueue methods may complete
// earlier requests inline (firing OnComplete) to hold the window bound;
// Flush completes everything still in flight.
type Pipe interface {
	Get(key uint64) error
	Put(key, val uint64) error
	Insert(key, val uint64) error
	Delete(key uint64) error
	// Flush completes every in-flight request, firing OnComplete for each.
	Flush() error
	// Close flushes the pipe and rejects further enqueues. The Store
	// remains usable.
	Close() error
}

// VersionReader is the optional Store extension behind cluster
// anti-entropy: a versioned read, pairing a key's value with its
// applied-mutation count (Handle.VersionOf). Backends whose table was
// built without Config.TrackVersions report ver==0 for every key.
// Implementations return a consistent (val, ok, ver) triple — the value
// observed is the one the version counts — up to the bounded-retry
// precision documented on verIndex.
type VersionReader interface {
	GetVer(key uint64) (val uint64, ok bool, ver uint64, err error)
}

// Scanner is the optional Store extension behind cluster resharding and
// scrubbing: the resumable weak-snapshot walk of Handle.ScanStep. The zero
// Cursor starts a pass; thread each returned cursor into the next step
// until done.
type Scanner interface {
	ScanStep(cur Cursor, maxEnts int) (ents []Entry, next Cursor, done bool, err error)
}

// ---------------------------------------------------------------------------
// Local (in-process) Store
// ---------------------------------------------------------------------------

// Store returns this table as a Store, backed by a freshly acquired Handle.
// Close returns the handle (ids recycle, so per-worker Stores do not
// exhaust Config.MaxThreads). One Store per goroutine, like Handle.
func (t *Table) Store() (Store, error) {
	h, err := t.Handle()
	if err != nil {
		return nil, err
	}
	return &localStore{h: h}, nil
}

// MustStore is Store that panics on handle exhaustion.
func (t *Table) MustStore() Store {
	s, err := t.Store()
	if err != nil {
		panic(err)
	}
	return s
}

// localStore adapts a Handle to the Store surface. Locally there is no
// transport to fail: err carries the table's refusals only — the op gate's
// sentinels, and Insert's ErrFull/ErrShadow — the same ones its own Pipe
// completes with and a remote backend maps back onto.
type localStore struct {
	h *Handle
}

func (s *localStore) Get(key uint64) (uint64, bool, error) {
	if err := s.h.t.opErr(OpGet, key); err != nil {
		return 0, false, err
	}
	v, ok := s.h.Get(key)
	return v, ok, nil
}

func (s *localStore) Put(key, val uint64) (uint64, bool, error) {
	if err := s.h.t.opErr(OpPut, key); err != nil {
		return 0, false, err
	}
	prev, ok := s.h.Put(key, val)
	return prev, ok, nil
}

func (s *localStore) Insert(key, val uint64) (uint64, bool, error) {
	existing, err := s.h.Insert(key, val)
	if errors.Is(err, ErrExists) {
		return existing, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return 0, true, nil
}

func (s *localStore) Delete(key uint64) (uint64, bool, error) {
	if err := s.h.t.opErr(OpDelete, key); err != nil {
		return 0, false, err
	}
	prev, ok := s.h.Delete(key)
	return prev, ok, nil
}

// GetVer implements VersionReader with Handle.GetVer, behind the Get gate.
func (s *localStore) GetVer(key uint64) (uint64, bool, uint64, error) {
	if err := s.h.t.opErr(OpGet, key); err != nil {
		return 0, false, 0, err
	}
	v, ok, ver := s.h.GetVer(key)
	return v, ok, ver, nil
}

// ScanStep implements Scanner. Allocator-mode tables refuse: their value
// words are block refs that are meaningless outside the owning process.
func (s *localStore) ScanStep(cur Cursor, maxEnts int) ([]Entry, Cursor, bool, error) {
	if s.h.t.cfg.Mode == Allocator {
		return nil, Cursor{}, false, ErrWrongMode
	}
	ents, next, done := s.h.ScanStep(cur, maxEnts, nil)
	return ents, next, done, nil
}

func (s *localStore) Pipe(opts PipeOpts) (Pipe, error) {
	lp := &localPipe{}
	onc := opts.OnComplete
	pl := s.h.Pipeline(PipelineOpts{Window: opts.Window, OnComplete: func(op *Op) {
		if onc != nil {
			onc(op.Completion())
		}
	}})
	lp.pl = pl
	return lp, nil
}

func (s *localStore) Close() error {
	s.h.Close()
	return nil
}

// localPipe adapts a Pipeline to the Pipe surface; the error results exist
// for the interface and are always nil locally.
type localPipe struct {
	pl *Pipeline
}

func (p *localPipe) Get(key uint64) error         { p.pl.Get(key); return nil }
func (p *localPipe) Put(key, val uint64) error    { p.pl.Put(key, val); return nil }
func (p *localPipe) Insert(key, val uint64) error { p.pl.Insert(key, val); return nil }
func (p *localPipe) Delete(key uint64) error      { p.pl.Delete(key); return nil }
func (p *localPipe) Flush() error                 { p.pl.Flush(); return nil }
func (p *localPipe) Close() error                 { p.pl.Close(); return nil }
