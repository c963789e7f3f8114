package cluster

// Fuzz target for the sharded distinct-value index (wired into
// `make fuzz-smoke`):
//
//	go test -fuzz FuzzShardedIndexConservation -fuzztime 30s ./internal/cluster
//
// Values are split on the ASCII unit separator (0x1f) so the fuzzer can
// place newlines, CRLF pairs, and multi-byte UTF-8 *inside* values — the
// byte shapes most likely to land unevenly across shard hash boundaries.

import (
	"strings"
	"testing"
)

// FuzzShardedIndexConservation checks the conservation invariants of the
// sharded index against a serial dedup, for arbitrary values, shard
// counts, worker counts, and a two-batch append split: shard-local row
// counts must sum to the input size, the merged distinct multiset must
// equal the serial one, and the profiled hierarchy must be byte-identical
// to the reference per-row profiler's.
func FuzzShardedIndexConservation(f *testing.F) {
	sep := "\x1f"
	f.Add("a"+sep+"b"+sep+"a", uint8(2), uint8(4), uint8(1))
	f.Add(""+sep+""+sep+"x", uint8(0), uint8(1), uint8(0))
	f.Add("line1\r\nline2"+sep+"line1\nline2"+sep+"\r\n", uint8(4), uint8(2), uint8(2))
	f.Add("café 12"+sep+"naïve 34"+sep+"日本 999"+sep+"café 12", uint8(1), uint8(8), uint8(3))
	f.Add("(734) 645-8397"+sep+"734.236.3466"+sep+"N/A"+sep+"N/A", uint8(3), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, blob string, shardSel, workerSel, splitSel uint8) {
		rows := strings.Split(blob, sep)
		if len(rows) > 64 {
			rows = rows[:64]
		}
		shards := 1 << (int(shardSel) % 5) // 1, 2, 4, 8, 16
		opts := DefaultOptions()
		opts.Workers = 1 + int(workerSel)%8

		ix := NewIndexShards(opts, shards)
		split := int(splitSel) % (len(rows) + 1)
		ix.Add(rows[:split])
		ix.Add(rows[split:])

		// Conservation: shard counts sum to the input size and the merged
		// distinct multiset equals a serial dedup.
		serial := make(map[string]int, len(rows))
		for _, v := range rows {
			serial[v]++
		}
		merged := ix.DistinctCounts()
		if len(merged) != len(serial) {
			t.Fatalf("merged distinct set has %d values, serial dedup %d", len(merged), len(serial))
		}
		total := 0
		for v, n := range merged {
			if serial[v] != n {
				t.Fatalf("count[%q] = %d across shards, serial dedup says %d", v, n, serial[v])
			}
			total += n
		}
		if total != len(rows) {
			t.Fatalf("shard counts sum to %d rows, input has %d", total, len(rows))
		}
		if ix.Rows() != len(rows) || ix.DistinctValues() != len(serial) {
			t.Fatalf("index reports rows=%d distinct=%d, want %d/%d",
				ix.Rows(), ix.DistinctValues(), len(rows), len(serial))
		}

		// Differential: the sharded, incrementally-built profile matches
		// the reference per-row profiler byte for byte.
		want := hierarchyFingerprint(referenceProfile(rows, opts))
		if got := hierarchyFingerprint(ix.Profile()); got != want {
			t.Fatalf("sharded profile diverges from reference\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}
