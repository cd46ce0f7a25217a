package core

import (
	"bytes"
	"encoding/gob"

	"binpart/internal/cache"
	"binpart/internal/sim"
)

// Codecs for the disk tier: each stage whose value has a byte format
// gets a cache.Codec so its results persist across processes.
// Compilation already round-trips through binimg; this file adds
// simulation results (plain data, gob).

// SimCodec round-trips sim.Result through gob. Profiles are maps of
// plain counters; the whole value is platform-independent data.
func SimCodec() cache.Codec[sim.Result] {
	return cache.Codec[sim.Result]{
		Marshal: func(r sim.Result) ([]byte, error) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(r); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Unmarshal: func(b []byte) (sim.Result, error) {
			var r sim.Result
			err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r)
			return r, err
		},
	}
}
