package checkpoint_test

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/traffic"
)

// fuzzSeedSnapshot builds one small but fully populated snapshot (in-flight
// flits, queued packets, pending link transitions are all possible at this
// point) to seed the fuzz corpora with structurally valid bytes, so the
// fuzzer starts at the format's surface instead of random noise.
func fuzzSeedSnapshot(t testing.TB) []byte {
	t.Helper()
	cfg := network.NewConfig()
	cfg.K = 4 // 4x4 mesh keeps the corpus entry small
	tr, horizon := confTrace(t, 0.3, cfg)
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Launch(tr, horizon)
	n.SetDVSHold(true)
	n.Run(300)
	snap, err := checkpoint.Capture(n)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	b, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

func addSeeds(f *testing.F) {
	b := fuzzSeedSnapshot(f)
	f.Add(b)
	f.Add([]byte{})
	f.Add(b[:10])          // header only
	f.Add(b[:len(b)/2])    // truncated mid-payload
	f.Add(append(b, 0xff)) // trailing garbage
	corrupt := append([]byte(nil), b...)
	for i := 16; i < len(corrupt); i += 97 {
		corrupt[i] ^= 0xa5
	}
	f.Add(corrupt)
}

// fuzzTrace memoizes the restore-target trace: capturing a two-level
// workload per exec would throttle the fuzzer to a handful of execs per
// second.
var fuzzTrace struct {
	once sync.Once
	tr   *traffic.Trace
}

// FuzzCheckpointDecode: arbitrary or corrupted snapshot bytes must never
// panic the decoder — they either decode or error cleanly.
func FuzzCheckpointDecode(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := checkpoint.Decode(b)
		if err != nil {
			return
		}
		// Another schema's bytes must error, not misalign into some state:
		// a dirty-tree build shares one run-cache fingerprint across edits.
		if v := binary.LittleEndian.Uint16(b[8:10]); v != checkpoint.SchemaVersion {
			t.Fatalf("schema %d snapshot decoded under schema %d", v, checkpoint.SchemaVersion)
		}
		// A successful decode must also survive a restore attempt — the
		// restore validates, it must not panic — even though almost every
		// fuzz-mutated state is rejected as structurally inconsistent.
		cfg := network.NewConfig()
		cfg.K = 4
		n, nerr := network.New(cfg)
		if nerr != nil {
			t.Fatal(nerr)
		}
		var tr *traffic.Trace
		if snap.State.Traffic.HasTrace {
			fuzzTrace.once.Do(func() { fuzzTrace.tr, _ = confTrace(t, 0.3, cfg) })
			tr = fuzzTrace.tr
		}
		_ = n.RestoreCheckpoint(&snap.State, tr)
	})
}

// FuzzSnapshotRoundTrip: any bytes the decoder accepts must re-encode and
// re-decode to the identical state — the codec has one canonical image per
// state and loses nothing.
func FuzzSnapshotRoundTrip(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := checkpoint.Decode(b)
		if err != nil {
			return
		}
		out, err := checkpoint.Encode(snap)
		if err != nil {
			t.Fatalf("decoded snapshot failed to encode: %v", err)
		}
		again, err := checkpoint.Decode(out)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if d := checkpoint.DiffStates(&snap.State, &again.State); d != "" {
			t.Fatalf("round trip diverged: %s", d)
		}
	})
}
