package cache

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// Snapshot log: the disk tier's on-disk format, used for warm restarts. The
// file is a header followed by self-delimiting records, one per resident
// chunk, each carrying its residency attributes and a codec-compressed
// payload guarded by a CRC. Records are framed so the file can be produced
// by appending and consumed record-at-a-time; a torn tail (the process died
// mid-write) or a flipped bit fails that record's CRC, a key outside the
// grid fails its range check, and loading stops there with an error — the
// caller decides whether the prefix admitted so far is worth keeping (the
// daemon keeps it: a partially warm cache beats a cold one). The header
// carries a fingerprint of the chunk grid the keys index into, so a
// snapshot taken at one scale never loads into another.
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

// snapRecord is one record of a snapshot log: a chunk with the residency
// attributes a load needs to reinsert it faithfully.
type snapRecord struct {
	key      Key
	data     *chunk.Chunk
	class    Class
	benefit  float64
	recycled bool
}

// insertOption is the admission that restores r's class and benefit.
func (r snapRecord) insertOption() InsertOption {
	switch {
	case r.recycled:
		return AsRecycled(r.benefit)
	case r.class == ClassComputed:
		return AsComputed(r.benefit)
	}
	return AsBackend(r.benefit)
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
		buf = appendSnapshotRecord(buf[:0], snapRecord{
			key: k, data: data, class: cl, benefit: benefit, recycled: recycled,
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
func appendSnapshotRecord(dst []byte, r snapRecord) []byte {
	body := make([]byte, 0, 18+chunk.EncodedSize(r.data))
	body = binary.LittleEndian.AppendUint32(body, uint32(int32(r.key.GB)))
	body = binary.LittleEndian.AppendUint32(body, uint32(r.key.Num))
	var flags byte
	if r.recycled {
		flags |= snapRecycled
	}
	body = append(body, byte(r.class), flags)
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(r.benefit))
	body = chunk.AppendPayload(body, r.data)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// readSnapshot parses the snapshot log in src (a whole file) and returns its
// records in file order. A header that does not match the format version or
// grid g fails before any record is read; past the header the scan stops at
// the first corrupt record — torn, failing its CRC, or naming a chunk
// outside g — and returns the records before it. Any such failure wraps
// ErrSnapshot.
func readSnapshot(src []byte, g *chunk.Grid) ([]snapRecord, error) {
	if len(src) < snapHeaderLen || !bytes.Equal(src[:len(snapMagic)], snapMagic[:]) {
		return nil, snapErr("cache: snapshot magic/version mismatch")
	}
	if binary.LittleEndian.Uint64(src[len(snapMagic):]) != gridFingerprint(g) {
		return nil, snapErr("cache: snapshot was written for a different chunk grid")
	}
	var recs []snapRecord
	rest := src[snapHeaderLen:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return recs, snapErr("cache: snapshot record header truncated")
		}
		length := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		rest = rest[8:]
		if length > snapMaxRecord {
			return recs, snapErr("cache: snapshot record length %d exceeds limit", length)
		}
		if uint32(len(rest)) < length {
			return recs, snapErr("cache: snapshot record body truncated (want %d bytes, have %d)", length, len(rest))
		}
		body := rest[:length]
		rest = rest[length:]
		if crc32.ChecksumIEEE(body) != sum {
			return recs, snapErr("cache: snapshot record checksum mismatch")
		}
		r, err := decodeSnapshotBody(body, g)
		if err != nil {
			return recs, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// decodeSnapshotBody parses one CRC-validated record body whose key must
// name a chunk of grid g.
func decodeSnapshotBody(body []byte, g *chunk.Grid) (snapRecord, error) {
	if len(body) < 18 {
		return snapRecord{}, snapErr("cache: snapshot record body too short")
	}
	var r snapRecord
	r.key.GB = lattice.ID(int32(binary.LittleEndian.Uint32(body)))
	r.key.Num = int32(binary.LittleEndian.Uint32(body[4:]))
	if r.key.GB < 0 || int(r.key.GB) >= g.Lattice().NumNodes() ||
		r.key.Num < 0 || int(r.key.Num) >= g.NumChunks(r.key.GB) {
		return snapRecord{}, snapErr("cache: snapshot record %v outside the chunk grid", r.key)
	}
	r.class = Class(body[8])
	if r.class != ClassBackend && r.class != ClassComputed {
		return snapRecord{}, snapErr("cache: snapshot record has unknown class %d", body[8])
	}
	flags := body[9]
	if flags&^snapRecycled != 0 {
		return snapRecord{}, snapErr("cache: snapshot record has unknown flags %#x", flags)
	}
	r.recycled = flags&snapRecycled != 0
	r.benefit = math.Float64frombits(binary.LittleEndian.Uint64(body[10:]))
	data, err := chunk.DecodePayload(r.key.GB, r.key.Num, body[18:])
	if err != nil {
		return snapRecord{}, snapErr("cache: snapshot record payload: %v", err)
	}
	r.data = data
	return r, nil
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

// LoadSnapshotFile restores the snapshot at path, which must have been
// written over grid g, into s, and returns the number of chunks s admitted.
// Every record goes in through s.Insert with its saved class and benefit, so
// the store's listeners (a lookup strategy's counts and costs) see a normal
// admission. Records are inserted in ascending benefit order: a store
// smaller than the one saved evicts the earlier, cheaper records to admit
// the later ones, so it ends holding the most valuable records that fit,
// and with a cold tier the overflow demotes cheapest first. Replacement
// state (clock weights, ring membership) is not saved;
// reloaded chunks start fresh.
//
// A missing file is reported as os.ErrNotExist. A snapshot of another grid
// fails with an ErrSnapshot-wrapped error before anything is admitted. A
// corrupt record (a torn tail from a crash mid-write, a flipped bit, a key
// outside g) stops the scan: the records before it are admitted and the
// ErrSnapshot-wrapped error is returned alongside their count, so the
// caller can choose a partially warm cache over a cold one.
func LoadSnapshotFile(path string, g *chunk.Grid, s Store) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	recs, err := readSnapshot(data, g)
	slices.SortStableFunc(recs, func(a, b snapRecord) int { return cmp.Compare(a.benefit, b.benefit) })
	admitted := 0
	for _, r := range recs {
		if s.Insert(r.key, r.data, r.insertOption()) {
			admitted++
		}
	}
	return admitted, err
}
