package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
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

// TestConcurrentTieredCache hammers one DiskStore from several caches
// at once: per-goroutine caches smaller than the key set (so evictions
// send lookups back to disk) and one cache shared by every goroutine (so
// fill's inflight exclusion races disk probes and write-backs). Under
// -race this is the concurrency audit for fill over a backing tier.
func TestConcurrentTieredCache(t *testing.T) {
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := New[string](16).WithDisk(store, stringCodec)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := New[string](4).WithDisk(store, stringCodec)
			for i := 0; i < 40; i++ {
				k := NewHasher("t").Int(int64(i % 8)).Sum()
				want := fmt.Sprintf("v%d", i%8)
				for _, c := range []*Cache[string]{own, shared} {
					v, err := c.GetOrCompute(k, func() (string, error) { return want, nil })
					if err != nil || v != want {
						t.Errorf("goroutine %d: %q, %v", g, v, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := shared.Stats(); s.Corrupt != 0 || s.Hits+s.Misses != 4*40 {
		t.Errorf("shared stats = %+v, want 160 clean lookups", s)
	}
}

// TestCacheTierLatencies checks that disk probes feed the disk latency
// histogram, and that a cache without a disk tier reports none.
func TestCacheTierLatencies(t *testing.T) {
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New[string](8).WithDisk(store, stringCodec)

	k := NewHasher("t").String("lat").Sum()
	if _, err := c.GetOrCompute(k, func() (string, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}

	snap, ok := c.DiskLatency()
	if !ok || snap.Count == 0 {
		t.Fatalf("no disk latency samples: %+v, %v", snap, ok)
	}

	if _, ok := New[string](8).DiskLatency(); ok {
		t.Error("diskless cache reports a disk latency")
	}
}
