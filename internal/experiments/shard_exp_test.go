package experiments

import "testing"

// E14 is itself an equivalence assertion — the report's Pass verdict demands
// byte-identical per-cycle hash streams at shard counts 1..4 and an agreeing
// 4-shard scale run — so the test just runs it in quick mode and checks the
// verdict plus report determinism across repeats.
func TestE14ShardedEquivalence(t *testing.T) {
	opt := Options{Quick: true, Parallel: 1}
	first := reportDigest(t, "E14", opt)
	e, _ := ByID("E14")
	r, err := e.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("E14 failed its shape criterion:\n%s", r)
	}
	if again := reportDigest(t, "E14", opt); again != first {
		t.Errorf("E14 report digest not repeatable: %#x vs %#x", again, first)
	}
}
