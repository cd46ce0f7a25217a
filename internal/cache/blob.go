package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Sealed blob framing. Every serialized cache value that leaves the
// typed in-memory layer for the disk tier is wrapped in an 8-byte
// header:
//
//	[0:4]  magic "SBC1"
//	[4:8]  CRC32-C (Castagnoli) of the payload, little endian
//	[8:]   codec payload
//
// The header makes corruption (torn writes, truncation, bit rot)
// detectable without running the value codec: Open is a checksum over
// the bytes, not a parse. A blob that fails Open is treated exactly like
// a codec rejection — counted corrupt, deleted from the store, and
// recomputed.

// blobMagic distinguishes sealed blobs from raw or pre-header files; a
// version bump (SBC2) invalidates every existing blob, which is the
// designed migration path.
const blobMagic = "SBC1"

// blobHeaderLen is the sealed header size in bytes.
const blobHeaderLen = 8

// castagnoli returns the CRC32-C table, built on first use: only the disk
// tier seals and opens blobs, and building the table at package init
// would cost every process start.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// Blob corruption errors. All unwrap to ErrBlobCorrupt so callers can
// classify without string matching.
var (
	ErrBlobCorrupt  = errors.New("cache: corrupt blob")
	errBlobShort    = fmt.Errorf("%w: shorter than header", ErrBlobCorrupt)
	errBlobMagic    = fmt.Errorf("%w: bad magic", ErrBlobCorrupt)
	errBlobChecksum = fmt.Errorf("%w: checksum mismatch", ErrBlobCorrupt)
)

// Seal wraps a codec payload in the checksum header.
func Seal(payload []byte) []byte {
	out := make([]byte, blobHeaderLen+len(payload))
	copy(out, blobMagic)
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, castagnoli()))
	copy(out[blobHeaderLen:], payload)
	return out
}

// Open verifies a sealed blob and returns its payload (aliasing the
// input). It fails on a short blob, a missing magic, or a checksum
// mismatch; every failure wraps ErrBlobCorrupt.
func Open(blob []byte) ([]byte, error) {
	if len(blob) < blobHeaderLen {
		return nil, errBlobShort
	}
	if string(blob[:4]) != blobMagic {
		return nil, errBlobMagic
	}
	payload := blob[blobHeaderLen:]
	if crc32.Checksum(payload, castagnoli()) != binary.LittleEndian.Uint32(blob[4:8]) {
		return nil, errBlobChecksum
	}
	return payload, nil
}
