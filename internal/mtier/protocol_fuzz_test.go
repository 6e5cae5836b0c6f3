package mtier

import "testing"

// FuzzAnswerFrame throws arbitrary bytes at the answer payload decoder. The
// invariants mirror FuzzPeerFrame: no panic; no cell the payload cannot back
// (each costs at least 28 bytes on the wire); and whatever the decoder
// accepts re-encodes to a prefix of the payload, since it ignores trailing
// bytes.
func FuzzAnswerFrame(f *testing.F) {
	f.Add(encodeResponse(nil, &Response{Agg: "SUM"}))
	f.Add(encodeResponse(nil, &Response{
		Agg: "SUM", CompleteHit: true, Aggregated: true,
		Lookup: 3, Aggregate: 5, Update: 7, Backend: 11,
		Levels: []string{"Time:Year", "Product:Division"},
		Cells: []Cell{
			{Members: []int32{0, 1}, Value: 1.5, Sum: 1.5, Count: 1},
			{Members: []int32{1, 1}, Value: 2.5, Sum: 5, Count: 2},
			{Members: []int32{2, 0}, Value: -3, Sum: -3, Count: 1},
		},
	}))
	f.Add(encodeResponse(nil, &Response{Agg: "AVG", Degraded: true, Levels: []string{"Time:Year"},
		Cells: []Cell{{Members: []int32{3}, Value: 2, Sum: 4, Count: 2}}}))
	// A flag bit no encoder sets must be rejected, not silently dropped.
	f.Add(append([]byte{1 << 7}, encodeResponse(nil, &Response{Agg: "SUM"})[1:]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeResponse(payload)
		if err != nil {
			return
		}
		if 28*len(r.Cells) > len(payload) {
			t.Fatalf("decoded %d cells from %d payload bytes", len(r.Cells), len(payload))
		}
		got := encodeResponse(nil, r)
		if len(got) > len(payload) || string(got) != string(payload[:len(got)]) {
			t.Fatalf("answer did not re-encode to a prefix: %x vs %x", got, payload)
		}
	})
}
