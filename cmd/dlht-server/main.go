// Command dlht-server exposes DLHT tables over TCP using the pipelined
// binary protocol of repro/internal/server. Every request is fed, as it
// is decoded, into a streaming pipeline (§3.3) whose completions write the
// responses — replies stream out while a deep burst is still being
// decoded.
//
// The process hosts one default table (served to handshakes with no table
// selector) plus any number of named tables declared with -tables; clients
// pick one in the handshake.
// Tables in kv mode (Allocator, VariableKV, Namespaces) serve the
// variable-length KV frames.
//
// Any table can be durable: -durable DIR backs the default table with a
// group-commit WAL in DIR, and a -tables entry takes a durable=DIR
// segment (name:kv:durable=/path). Durable tables recover their state
// from the directory on startup and withhold each response until a group
// commit covers its mutation, so an acknowledged write survives kill -9.
//
// Every connection owns one table handle (the paper's one handle per
// thread), so -max-threads bounds each table's concurrent connections.
//
// Usage:
//
//	dlht-server -addr :4040 -bins 1048576 -window 16 \
//	    -pprof 127.0.0.1:6060 \
//	    -tables users:kv:durable=/var/lib/dlht/users,sessions:inlined \
//	    -idle-timeout 5m
package main

import (
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	dlht "repro"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":4040", "listen address")
		bins       = flag.Uint64("bins", 1<<20, "initial bin count per table (3 slots per bin)")
		resizable  = flag.Bool("resizable", true, "enable non-blocking resize")
		maxThreads = flag.Int("max-threads", 4096, "max concurrent connections per table (table handles)")
		hashName   = flag.String("hash", "modulo", "bin hash: modulo|wy|xx|murmur3|fnv1a")
		window     = flag.Int("window", 0, "prefetch window of the per-connection pipeline (<=0 = default 16)")
		tables     = flag.String("tables", "", "extra named tables, comma-separated name[:mode][:durable=dir] entries with mode inlined (default) or kv (Allocator, variable KV, namespaces); durable=dir backs the table with a group-commit WAL in dir")
		durableDir = flag.String("durable", "", "back the default table with a group-commit WAL in this directory (empty = RAM only)")
		idle       = flag.Duration("idle-timeout", 0, "close connections idle (unreadable or unwritable) for this long; 0 disables")
		trackVers  = flag.Bool("track-versions", false, "maintain a per-key write-version index (serves OpGetVer; cluster resharding and anti-entropy use it for exact last-write-wins ordering)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
		respAddr   = flag.String("resp", "", "serve RESP2 (the Redis protocol) on this address (e.g. :6379); empty disables")
		respTable  = flag.String("resp-table", "", "kv-mode table the RESP listener serves (default: a RAM kv table named \"resp\", created if absent)")
	)
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers; serving
			// hotspots are inspectable on the live server via
			// `go tool pprof http://<addr>/debug/pprof/profile?seconds=10`.
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	cfg := dlht.Config{Bins: *bins, Resizable: *resizable, MaxThreads: *maxThreads, PrefetchWindow: *window, TrackVersions: *trackVers}
	switch *hashName {
	case "modulo":
		cfg.Hash = dlht.HashModulo
	case "wy":
		cfg.Hash = dlht.HashWy
	case "xx":
		cfg.Hash = dlht.HashXX
	case "murmur3":
		cfg.Hash = dlht.HashMurmur3
	case "fnv1a":
		cfg.Hash = dlht.HashFNV1a
	default:
		log.Fatalf("unknown -hash %q", *hashName)
	}
	// Durable stores stay open past server.Close (connections gate their
	// last responses on the log); they are closed, in order, on the way out.
	var durables []*dlht.DurableStore
	openDurable := func(what, dir string, tcfg dlht.Config) *dlht.DurableStore {
		ds, err := wal.Open(dir, tcfg, wal.Options{})
		if err != nil {
			log.Fatalf("%s: open durable dir %s: %v", what, dir, err)
		}
		rs := ds.RecoverStats()
		log.Printf("%s: recovered %s (snapshot: %d records; log: %d segments, %d records; torn tail: %d bytes truncated)",
			what, dir, rs.SnapshotRecords, rs.Segments, rs.Records, rs.TornBytes)
		durables = append(durables, ds)
		return ds
	}

	var tbl *dlht.Table
	var defaultDS *dlht.DurableStore
	if *durableDir != "" {
		defaultDS = openDurable("default table", *durableDir, cfg)
		tbl = defaultDS.Table()
	} else {
		var err error
		tbl, err = dlht.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	respTableName := *respTable
	if *respAddr != "" && respTableName == "" {
		respTableName = "resp"
	}
	s := server.New(tbl, server.Options{
		IdleTimeout: *idle,
		RESPTable:   respTableName,
	})
	if defaultDS != nil {
		if err := s.AddDurable(server.DefaultTable, defaultDS); err != nil {
			log.Fatal(err)
		}
	}
	names := []string{"(default)"}
	if *tables != "" {
		for _, spec := range strings.Split(*tables, ",") {
			parts := strings.Split(spec, ":")
			name := parts[0]
			if name == "" {
				log.Fatalf("bad -tables entry %q: empty name", spec)
			}
			tcfg, dir := cfg, ""
			for _, p := range parts[1:] {
				switch {
				case p == "inlined":
				case p == "kv":
					tcfg.Mode = dlht.Allocator
					tcfg.VariableKV = true
					tcfg.Namespaces = true
					// Epoch GC keeps a GetKV value view stable while it is
					// copied into a response, even against a concurrent
					// DeleteKV from another connection; the serve loop
					// refreshes each connection's epoch periodically.
					tcfg.EpochGC = true
				case strings.HasPrefix(p, "durable="):
					dir = strings.TrimPrefix(p, "durable=")
				default:
					log.Fatalf("bad -tables entry %q: unknown segment %q (want inlined, kv or durable=dir)", spec, p)
				}
			}
			if dir != "" {
				ds := openDurable("table "+name, dir, tcfg)
				if err := s.AddDurable(name, ds); err != nil {
					log.Fatalf("table %s: %v", name, err)
				}
			} else {
				nt, err := dlht.New(tcfg)
				if err != nil {
					log.Fatalf("table %s: %v", name, err)
				}
				if err := s.AddTable(name, nt); err != nil {
					log.Fatalf("table %s: %v", name, err)
				}
			}
			names = append(names, spec)
		}
	}

	if *respAddr != "" {
		if s.Table(respTableName) == nil {
			rcfg := cfg
			rcfg.Mode = dlht.Allocator
			rcfg.VariableKV = true
			rcfg.Namespaces = true
			rcfg.EpochGC = true
			rt, err := dlht.New(rcfg)
			if err != nil {
				log.Fatalf("resp table %s: %v", respTableName, err)
			}
			if err := s.AddTable(respTableName, rt); err != nil {
				log.Fatalf("resp table %s: %v", respTableName, err)
			}
			names = append(names, respTableName+":kv (resp)")
		}
		go func() {
			if err := s.ListenAndServeRESP(*respAddr); err != nil && !errors.Is(err, server.ErrServerClosed) {
				log.Printf("resp listener: %v", err)
			}
		}()
		log.Printf("resp listening on %s (table=%s)", *respAddr, respTableName)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the listeners,
	// drains every connection, then the main goroutine
	// seals the durable stores. A second signal while that drain is stuck
	// forces the process out.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("shutting down (signal again to force exit)")
		go s.Close()
		<-sig
		log.Printf("second signal: forcing exit")
		os.Exit(1)
	}()

	log.Printf("dlht-server listening on %s (bins=%d resizable=%v window=%d idle-timeout=%v tables=%s)",
		*addr, *bins, *resizable, *window, *idle, strings.Join(names, ","))
	if err := s.ListenAndServe(*addr); err != nil && !errors.Is(err, server.ErrServerClosed) {
		log.Fatal(err)
	}
	// Server.Close has drained every connection; now seal the logs so the
	// final state is recoverable from a clean tail.
	for _, ds := range durables {
		if err := ds.Close(); err != nil {
			log.Printf("closing durable store: %v", err)
		}
	}
	st := tbl.Stats()
	log.Printf("final: %d/%d slots occupied (%.1f%%), %d resizes",
		st.Occupied, st.Capacity, st.Occupancy*100, st.Resizes)
}
