package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stringCodec is the trivial test codec.
var stringCodec = Codec[string]{
	Marshal:   func(s string) ([]byte, error) { return []byte(s), nil },
	Unmarshal: func(b []byte) (string, error) { return string(b), nil },
}

// TestSealOpen pins the checksum framing: round trip, and every way a
// blob can rot — truncation, bad magic, a flipped payload bit — must be
// detected and classified as ErrBlobCorrupt.
func TestSealOpen(t *testing.T) {
	payload := []byte("stage result bytes")
	blob := Seal(payload)
	got, err := Open(blob)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	if _, err := Open(Seal(nil)); err != nil {
		t.Errorf("empty payload: %v", err)
	}

	cases := map[string][]byte{
		"truncated header":  blob[:4],
		"truncated payload": blob[:len(blob)-3],
		"bad magic":         append([]byte("XXXX"), blob[4:]...),
		"raw pre-header":    payload,
	}
	flipped := append([]byte(nil), blob...)
	flipped[blobHeaderLen] ^= 0x40
	cases["flipped payload bit"] = flipped
	for name, b := range cases {
		if _, err := Open(b); !errors.Is(err, ErrBlobCorrupt) {
			t.Errorf("%s: err = %v, want ErrBlobCorrupt", name, err)
		}
	}
}

// TestMemTier checks the LRU-as-blob-store adapter.
func TestMemTier(t *testing.T) {
	m := NewMemTier(4)
	if m.Name() != "memory" || m.HitOutcome() != OutcomeHit {
		t.Fatalf("identity: %s/%v", m.Name(), m.HitOutcome())
	}
	k := NewHasher("t").String("m").Sum()
	if _, ok := m.Get(k); ok {
		t.Fatal("hit on empty tier")
	}
	if err := m.Put(k, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Get(k); !ok || string(got) != "blob" {
		t.Fatalf("get = %q, %v", got, ok)
	}
	if err := m.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(k); ok {
		t.Error("deleted blob served")
	}
}

// startServer runs a cache server on a loopback port for the test's
// lifetime.
func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	srv, err := ListenAndServe("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// dialTier connects a RemoteTier to the given servers with test-speed
// timeouts.
func dialTier(t *testing.T, cfg RemoteConfig, srvs ...*Server) *RemoteTier {
	t.Helper()
	addrs := make([]string, len(srvs))
	for i, s := range srvs {
		addrs[i] = s.Addr()
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	rt, err := NewRemoteTier(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := rt.Ping(); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestRemoteTierProtocol exercises every wire op against a live server:
// GET miss, PUT, GET hit, DELETE, STATS, and the server's rejection of
// a blob that fails its checksum.
func TestRemoteTierProtocol(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	rt := dialTier(t, RemoteConfig{}, srv)

	k := NewHasher("t").String("wire").Sum()
	if _, ok := rt.Get(k); ok {
		t.Fatal("hit on empty server")
	}
	blob := Seal([]byte("profile bytes"))
	if err := rt.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := rt.Get(k)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("get after put: ok=%v", ok)
	}

	// An unsealed PUT must be refused, keeping the shared store clean.
	if err := rt.Put(k, []byte("raw junk")); err == nil {
		t.Error("server accepted an unsealed blob")
	}
	if got, _ := rt.Get(k); !bytes.Equal(got, blob) {
		t.Error("rejected put clobbered the stored blob")
	}

	if err := rt.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.Get(k); ok {
		t.Error("deleted blob served")
	}

	stats, err := rt.StatsFromPeers()
	if err != nil {
		t.Fatal(err)
	}
	s := stats[0]
	if s.Gets != 4 || s.GetHits != 2 || s.Puts != 2 || s.Corrupt != 1 || s.Dels != 1 {
		t.Errorf("server stats = %+v", s)
	}
	if rt.Errs() != 0 {
		t.Errorf("transport errors = %d", rt.Errs())
	}
}

// TestTieredCacheRemote wires a Cache to a remote tier: a compute in one
// cache must be served remotely (OutcomeRemote) by a second cache that
// shares only the server, with per-tier stats accounting for it.
func TestTieredCacheRemote(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	k := NewHasher("t").String("shared").Sum()

	a := New[string](8).WithTiers(stringCodec, dialTier(t, RemoteConfig{}, srv))
	v, out, err := a.GetOrComputeOutcome(k, func() (string, error) { return "computed", nil })
	if err != nil || v != "computed" || out != OutcomeMiss {
		t.Fatalf("first compute: %q, %v, %v", v, out, err)
	}

	b := New[string](8).WithTiers(stringCodec, dialTier(t, RemoteConfig{}, srv))
	v, out, err = b.GetOrComputeOutcome(k, func() (string, error) {
		t.Error("second cache recomputed a remotely cached value")
		return "", nil
	})
	if err != nil || v != "computed" {
		t.Fatalf("remote fetch: %q, %v", v, err)
	}
	if out != OutcomeRemote {
		t.Errorf("outcome = %v, want remote", out)
	}
	s := b.Stats()
	if s.RemoteHits != 1 || s.Hits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v, want one remote hit", s)
	}
	// Third call in b: the memory layer now has it.
	if _, out, _ := b.GetOrComputeOutcome(k, nil); out != OutcomeHit {
		t.Errorf("memory refill outcome = %v", out)
	}
}

// TestCrossProcessSingleflight is the claim/lease acceptance test: two
// clients racing one key against one server must produce exactly one
// compute (the claim winner) and one remote-wait (the loser receives
// the winner's PUT), with byte-identical values. Run under -race.
func TestCrossProcessSingleflight(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	k := NewHasher("t").String("raced").Sum()

	winner := New[string](8).WithTiers(stringCodec, dialTier(t, RemoteConfig{}, srv))
	loser := New[string](8).WithTiers(stringCodec, dialTier(t, RemoteConfig{}, srv))

	var computes atomic.Int32
	gate := make(chan struct{})
	type result struct {
		val string
		out Outcome
		err error
	}
	winCh := make(chan result, 1)
	go func() {
		v, out, err := winner.GetOrComputeOutcome(k, func() (string, error) {
			computes.Add(1)
			<-gate // hold the claim while the loser arrives
			return "the value", nil
		})
		winCh <- result{v, out, err}
	}()

	// Wait until the winner holds the server-side claim, then race the
	// loser into the parked CLAIM path.
	waitFor(t, "winner's claim", func() bool { return srv.Stats().ClaimWins == 1 })
	loseCh := make(chan result, 1)
	go func() {
		v, out, err := loser.GetOrComputeOutcome(k, func() (string, error) {
			computes.Add(1)
			return "the value", nil
		})
		loseCh <- result{v, out, err}
	}()
	// The loser must be parked on the claim before the winner finishes.
	waitFor(t, "loser parked", func() bool { return srv.Stats().Claims == 2 })
	close(gate)

	win, lose := <-winCh, <-loseCh
	if win.err != nil || lose.err != nil {
		t.Fatalf("errors: winner %v, loser %v", win.err, lose.err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want exactly 1", n)
	}
	if win.out != OutcomeMiss {
		t.Errorf("winner outcome = %v, want miss", win.out)
	}
	if lose.out != OutcomeRemoteWait {
		t.Errorf("loser outcome = %v, want rwait", lose.out)
	}
	if win.val != lose.val || win.val != "the value" {
		t.Errorf("values differ: winner %q, loser %q", win.val, lose.val)
	}
	if s := loser.Stats(); s.RemoteWaits != 1 || s.Hits != 1 {
		t.Errorf("loser stats = %+v, want one remote wait", s)
	}
	if s := srv.Stats(); s.ClaimWaits != 1 || s.ClaimWins != 1 {
		t.Errorf("server stats = %+v, want one win + one wait", s)
	}
}

// TestClaimLeaseExpiry is the fault test: the claim holder dies without
// a PUT, so the waiter's park must end at lease expiry with the waiter
// recomputing — delayed by one lease, never hung.
func TestClaimLeaseExpiry(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	k := NewHasher("t").String("orphaned").Sum()

	// The "dying" holder: claim directly at the tier layer and never PUT.
	dead := dialTier(t, RemoteConfig{Lease: 200 * time.Millisecond}, srv)
	if _, res, err := dead.Claim(k); err != nil || res != ClaimWon {
		t.Fatalf("setup claim: %v, %v", res, err)
	}

	waiter := New[string](8).WithTiers(stringCodec, dialTier(t, RemoteConfig{Lease: 200 * time.Millisecond}, srv))
	start := time.Now()
	done := make(chan struct{})
	var v string
	var out Outcome
	var err error
	go func() {
		defer close(done)
		v, out, err = waiter.GetOrComputeOutcome(k, func() (string, error) { return "recomputed", nil })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung past the lease: lease expiry did not hand the claim over")
	}
	if err != nil || v != "recomputed" {
		t.Fatalf("waiter result: %q, %v", v, err)
	}
	if out != OutcomeMiss {
		t.Errorf("waiter outcome = %v, want miss (recompute)", out)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("waiter returned in %v, before the lease could expire", elapsed)
	}
	if s := srv.Stats(); s.Expired < 1 {
		t.Errorf("server stats = %+v, want an expired lease", s)
	}
}

// TestConsistentHashSharding checks the ring: keys spread over every
// peer, the key->peer mapping is deterministic across client instances,
// and each blob lands on exactly the shard the ring names.
func TestConsistentHashSharding(t *testing.T) {
	srvs := []*Server{startServer(t, ServerConfig{}), startServer(t, ServerConfig{}), startServer(t, ServerConfig{})}
	rt := dialTier(t, RemoteConfig{}, srvs...)
	rt2 := dialTier(t, RemoteConfig{}, srvs...)

	const n = 64
	for i := 0; i < n; i++ {
		k := NewHasher("t").Int(int64(i)).Sum()
		if err := rt.Put(k, Seal([]byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
		if rt.peerFor(k).addr != rt2.peerFor(k).addr {
			t.Fatalf("key %d routes differently across client instances", i)
		}
		if got, ok := rt.Get(k); !ok || string(got[blobHeaderLen:]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d unreadable after put", i)
		}
	}
	var total uint64
	for i, s := range srvs {
		st := s.Stats()
		if st.Puts == 0 {
			t.Errorf("shard %d received no keys: ring is unbalanced", i)
		}
		total += st.Puts
	}
	if total != n {
		t.Errorf("puts across shards = %d, want %d", total, n)
	}
}

// TestRemoteFailSoft points a tiered cache at a dead peer: every
// operation must degrade to local compute, counting transport errors,
// never failing the lookup.
func TestRemoteFailSoft(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	addr := srv.Addr()
	srv.Close() // the port is now dead

	rt, err := NewRemoteTier([]string{addr}, RemoteConfig{Timeout: 200 * time.Millisecond, Lease: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c := New[string](8).WithTiers(stringCodec, rt)
	k := NewHasher("t").String("unreachable").Sum()
	v, out, err := c.GetOrComputeOutcome(k, func() (string, error) { return "local", nil })
	if err != nil || v != "local" {
		t.Fatalf("compute behind dead peer: %q, %v", v, err)
	}
	if out != OutcomeMiss {
		t.Errorf("outcome = %v, want miss", out)
	}
	if rt.Errs() == 0 {
		t.Error("dead peer produced no transport-error count")
	}
}

// TestServerDiskBacking restarts a server over one directory: values
// PUT before the restart must survive it.
func TestServerDiskBacking(t *testing.T) {
	dir := t.TempDir()
	k := NewHasher("t").String("durable").Sum()
	blob := Seal([]byte("persisted"))

	srv1 := startServer(t, ServerConfig{Dir: dir})
	rt1 := dialTier(t, RemoteConfig{}, srv1)
	if err := rt1.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2 := startServer(t, ServerConfig{Dir: dir})
	rt2 := dialTier(t, RemoteConfig{}, srv2)
	got, ok := rt2.Get(k)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("blob did not survive restart: ok=%v", ok)
	}
}

// TestTierChainMemoryDiskRemote runs the full three-tier chain and
// checks probe order: disk serves before remote is consulted, and a
// disk hit backfills the remote tier for other workers.
func TestTierChainMemoryDiskRemote(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	dir := t.TempDir()
	disk, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt := dialTier(t, RemoteConfig{}, srv)
	k := NewHasher("t").String("chained").Sum()

	// Seed only the disk tier.
	if err := disk.Put(k, Seal([]byte("from disk"))); err != nil {
		t.Fatal(err)
	}
	c := New[string](8).WithTiers(stringCodec, disk, rt)
	v, out, err := c.GetOrComputeOutcome(k, func() (string, error) {
		t.Error("computed despite a disk blob")
		return "", nil
	})
	if err != nil || v != "from disk" {
		t.Fatalf("disk tier: %q, %v", v, err)
	}
	if out != OutcomeDisk {
		t.Errorf("outcome = %v, want disk", out)
	}
	// The disk hit must have pushed the blob up to the remote tier.
	waitFor(t, "remote backfill", func() bool {
		_, ok := rt.Get(k)
		return ok
	})
	if s := c.Stats(); s.DiskHits != 1 || s.RemoteHits != 0 {
		t.Errorf("stats = %+v, want one disk hit", s)
	}
}

// waitFor polls cond for up to 5s; the deadline failure names what
// never happened.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConcurrentTieredCache hammers one server from several tiered
// caches; under -race this is the concurrency audit for the tier path
// (client pools, claim table, server LRU).
func TestConcurrentTieredCache(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	// Dial on the test goroutine: dialTier fails with t.Fatal, which must
	// not run from the hammering goroutines.
	var tiers [4]*RemoteTier
	for g := range tiers {
		tiers[g] = dialTier(t, RemoteConfig{}, srv)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := New[string](16).WithTiers(stringCodec, tiers[g])
			for i := 0; i < 40; i++ {
				k := NewHasher("t").Int(int64(i % 8)).Sum()
				want := fmt.Sprintf("v%d", i%8)
				v, err := c.GetOrCompute(k, func() (string, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("goroutine %d: %q, %v", g, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
