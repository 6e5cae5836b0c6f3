package cache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// Snapshot log: the disk tier's on-disk format, used for warm restarts. The
// file is a header followed by self-delimiting records, one per resident
// chunk, each carrying its residency attributes and a codec-compressed
// payload guarded by a CRC. Records are framed so the file can be produced
// by appending and consumed record-at-a-time; a torn tail (the process died
// mid-write) or a flipped bit fails that record's CRC and loading stops
// there with an error — the caller decides whether the prefix read so far
// is worth keeping (the daemon keeps it: a partially warm cache beats a cold
// one). The header carries a fingerprint of the chunk grid the keys index
// into, so a snapshot taken at one scale never loads into another.
//
// Layout, all little-endian:
//
//	[8]byte  magic "AGCSNAP\x03"   (the trailing byte is the format version)
//	u64      grid fingerprint       (gridFingerprint)
//	repeated records:
//	  u32 length   (of body)
//	  u32 crc32    (IEEE, of body)
//	  body:
//	    i32 gb, i32 num
//	    u8  class, u8 flags (bit0: recycled)
//	    f64 benefit
//	    payload (chunk codec, length-implied)

// snapMagic identifies a snapshot log; the last byte is the format version,
// so a format change is a magic mismatch, not a silent misparse.
var snapMagic = [8]byte{'A', 'G', 'C', 'S', 'N', 'A', 'P', 0x03}

// snapHeaderLen is the magic plus the grid fingerprint.
const snapHeaderLen = len(snapMagic) + 8

// snapRecycled marks a recycled resident in a record's flag byte.
const snapRecycled = 0x01

// snapMaxRecord bounds a record body so a corrupt length cannot drive a
// giant allocation: 16 MiB is ~700k cells, far beyond any real chunk.
const snapMaxRecord = 16 << 20

// ErrSnapshot is wrapped by snapshot load failures (bad magic, another
// grid's fingerprint, torn or corrupt records), distinguishable from I/O
// errors with errors.Is.
var ErrSnapshot = errors.New("cache: unusable snapshot")

// snapErr builds an error that errors.Is-matches ErrSnapshot.
func snapErr(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrSnapshot)...)
}

// SnapshotEntry is one record of a snapshot log: a chunk with the residency
// attributes a load needs to reinsert it faithfully.
type SnapshotEntry struct {
	Key      Key
	Data     *chunk.Chunk
	Class    Class
	Benefit  float64
	Recycled bool
}

// gridFingerprint hashes the geometry a snapshot's keys index into: per
// dimension the level count, and per level the member cardinality and the
// chunk count. Grids that differ in any of them number chunks differently,
// so a record written over one would decode into a different region of the
// other.
func gridFingerprint(g *chunk.Grid) uint64 {
	sch := g.Schema()
	b := binary.LittleEndian.AppendUint32(nil, uint32(sch.NumDims()))
	for d := 0; d < sch.NumDims(); d++ {
		dim := sch.Dim(d)
		b = binary.LittleEndian.AppendUint32(b, uint32(dim.Hierarchy()+1))
		for l := 0; l <= dim.Hierarchy(); l++ {
			b = binary.LittleEndian.AppendUint32(b, uint32(dim.Card(l)))
			b = binary.LittleEndian.AppendUint32(b, uint32(g.ChunkCount(d, l)))
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// writeSnapshot writes a snapshot log of every resident entry of s — across
// all tiers — keyed over grid g to w, and returns the number of records
// written. The store keeps serving while the snapshot is taken (Range visits
// shards one at a time), so the result is a consistent-per-shard, not
// globally atomic, picture; exactly what a warm restart needs.
func writeSnapshot(w io.Writer, s Store, g *chunk.Grid) (int, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	header := binary.LittleEndian.AppendUint64(snapMagic[:], gridFingerprint(g))
	if _, err := bw.Write(header); err != nil {
		return 0, err
	}
	var (
		n    int
		werr error
		buf  []byte
	)
	s.Range(func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool) {
		if werr != nil {
			return
		}
		buf = appendSnapshotRecord(buf[:0], SnapshotEntry{
			Key: k, Data: data, Class: cl, Benefit: benefit, Recycled: recycled,
		})
		if _, err := bw.Write(buf); err != nil {
			werr = err
			return
		}
		n++
	})
	if werr != nil {
		return n, werr
	}
	return n, bw.Flush()
}

// appendSnapshotRecord appends one framed record to dst.
func appendSnapshotRecord(dst []byte, e SnapshotEntry) []byte {
	body := make([]byte, 0, 18+chunk.EncodedSize(e.Data))
	body = binary.LittleEndian.AppendUint32(body, uint32(int32(e.Key.GB)))
	body = binary.LittleEndian.AppendUint32(body, uint32(e.Key.Num))
	var flags byte
	if e.Recycled {
		flags |= snapRecycled
	}
	body = append(body, byte(e.Class), flags)
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(e.Benefit))
	body = chunk.AppendPayload(body, e.Data)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// readSnapshot parses the snapshot log in src (a whole file) and calls fn
// for each record in file order. A header that does not match the format
// version or grid g fails before any record is delivered; past the header
// it stops at the first corruption. Either way the error wraps ErrSnapshot,
// and records already delivered stand. fn may return an error to abort the
// scan; that error is returned verbatim.
func readSnapshot(src []byte, g *chunk.Grid, fn func(e SnapshotEntry) error) error {
	if len(src) < snapHeaderLen || !bytes.Equal(src[:len(snapMagic)], snapMagic[:]) {
		return snapErr("cache: snapshot magic/version mismatch")
	}
	if binary.LittleEndian.Uint64(src[len(snapMagic):]) != gridFingerprint(g) {
		return snapErr("cache: snapshot was written for a different chunk grid")
	}
	rest := src[snapHeaderLen:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return snapErr("cache: snapshot record header truncated")
		}
		length := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		rest = rest[8:]
		if length > snapMaxRecord {
			return snapErr("cache: snapshot record length %d exceeds limit", length)
		}
		if uint32(len(rest)) < length {
			return snapErr("cache: snapshot record body truncated (want %d bytes, have %d)", length, len(rest))
		}
		body := rest[:length]
		rest = rest[length:]
		if crc32.ChecksumIEEE(body) != sum {
			return snapErr("cache: snapshot record checksum mismatch")
		}
		e, err := decodeSnapshotBody(body)
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// decodeSnapshotBody parses one CRC-validated record body.
func decodeSnapshotBody(body []byte) (SnapshotEntry, error) {
	if len(body) < 18 {
		return SnapshotEntry{}, snapErr("cache: snapshot record body too short")
	}
	var e SnapshotEntry
	e.Key.GB = lattice.ID(int32(binary.LittleEndian.Uint32(body)))
	e.Key.Num = int32(binary.LittleEndian.Uint32(body[4:]))
	e.Class = Class(body[8])
	if e.Class != ClassBackend && e.Class != ClassComputed {
		return SnapshotEntry{}, snapErr("cache: snapshot record has unknown class %d", body[8])
	}
	flags := body[9]
	if flags&^snapRecycled != 0 {
		return SnapshotEntry{}, snapErr("cache: snapshot record has unknown flags %#x", flags)
	}
	e.Recycled = flags&snapRecycled != 0
	e.Benefit = math.Float64frombits(binary.LittleEndian.Uint64(body[10:]))
	data, err := chunk.DecodePayload(e.Key.GB, e.Key.Num, body[18:])
	if err != nil {
		return SnapshotEntry{}, snapErr("cache: snapshot record payload: %v", err)
	}
	e.Data = data
	return e, nil
}

// SaveSnapshotFile writes a snapshot of s, whose keys index into grid g, to
// path atomically: the log is written to a temp file in the same directory
// and renamed over path, so a crash mid-save leaves the previous snapshot
// intact and a reader never observes a torn file through the final name.
func SaveSnapshotFile(path string, s Store, g *chunk.Grid) (int, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	n, err := writeSnapshot(f, s, g)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// LoadSnapshotFile reads the snapshot at path, which must have been written
// over grid g, and streams its records to fn; see readSnapshot for the
// corruption contract. A missing file is reported as os.ErrNotExist.
func LoadSnapshotFile(path string, g *chunk.Grid, fn func(e SnapshotEntry) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return readSnapshot(data, g, fn)
}
