package jobs

// The service layer has no shard count: the machine chooses its own stepper
// (core.NewMachine), so a submission naming one is an unknown field, and an
// execution persisted while the field existed is dropped at boot instead of
// wedging the restart.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestShardSpecValidation(t *testing.T) {
	for _, tc := range []struct{ body, field string }{
		{`{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","shards":2}}`, "shards"},
		{`{"kind":"campaign","campaign":{"shape":"4x4","epochs":[12],"patterns":["shift+5"],"shards":3}}`, "shards"},
		{`{"kind":"campaign","campaign":{"shape":"4x4","epochs":[12],"patterns":["shift+5"],"shards":0}}`, "shards"},
	} {
		_, err := DecodeSpec([]byte(tc.body))
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field || fe.Msg != "unknown field" {
			t.Errorf("%s: want unknown-field FieldError on %q, got %v", tc.body, tc.field, err)
		}
	}
}

// legacyShardsCanonical is the canonical encoding a campaign submitted with
// "shards":3 was persisted under before the field was removed.
const legacyShardsCanonical = `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[12],"patterns":["shift+5"],"waves":4,"gap":24,"horizon":50000,"inject":{"retransmit":true,"retry_after":64,"backoff":2,"max_retries":4},"recovery":{},"variant":{},"reconfig":{},"shards":3}}`

func TestShardsStateDroppedOnResume(t *testing.T) {
	dir := t.TempDir()
	h := canonHash(legacyShardsCanonical)
	st, err := openStateStore(dir, "w0")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.saveExecSpec(h, legacyShardsCanonical); err != nil {
		t.Fatal(err)
	}
	if err := st.saveJob("j000007", legacyShardsCanonical); err != nil {
		t.Fatal(err)
	}

	m, err := OpenManager(Config{Workers: 1, Parallel: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("boot over a state dir holding a shards spec: %v", err)
	}
	defer m.Stop()
	if _, err := os.Stat(filepath.Join(dir, "execs", h)); !os.IsNotExist(err) {
		t.Errorf("execution with the retired shards field was not dropped (stat: %v)", err)
	}
	if _, err := m.Lookup("j000007"); err == nil {
		t.Error("job bound to the dropped execution is still served")
	}

	// The same campaign without the field runs normally on the booted
	// manager, under a new identity.
	id, deduped, err := m.Submit(Spec{Kind: KindCampaign, Campaign: &CampaignSpec{
		Shape:    "4x4",
		Epochs:   []int64{12},
		Patterns: []string{"shift+5"},
		Inject:   InjectSpec{Retransmit: true},
	}})
	if err != nil || deduped {
		t.Fatalf("resubmission: deduped=%v err=%v", deduped, err)
	}
	waitStatus(t, m, id, StatusDone)
}
