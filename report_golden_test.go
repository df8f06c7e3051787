package qtrtest

import (
	"crypto/sha256"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCampaignReportGoldens pins the SHA-256 of five qtrtest reports, so a
// change that claims to leave campaigns byte-identical shows it here: the
// seed-42 pair suite validated with TOPK, the seed-42 star fuzz campaign's
// JSON and the verifier's JSON, the last two also with the reference-engine
// cross-check on (-backend ref). None of them prints a wall-clock field,
// and each is byte-identical at any -workers value. On a mismatch the test
// prints the new hash; pin it only for a change that moves the report on
// purpose, and say why in the commit.
func TestCampaignReportGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/qtrtest and runs five campaigns")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build cmd/qtrtest with")
	}
	bin := filepath.Join(t.TempDir(), "qtrtest")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./cmd/qtrtest").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/qtrtest: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name string
		args []string
		sum  string
	}{
		{"suite -pairs", []string{"-seed", "42", "-workers", "2", "suite", "-pairs", "-n", "6", "-k", "3", "-algo", "topk", "-validate"},
			"94851efadc39f4392ca4a3a5b8720235ac6edaa809c1f7e85cafe8838d67b742"},
		{"star fuzz", []string{"-db", "star", "-seed", "42", "-workers", "2", "fuzz", "-n", "200", "-json"},
			"7b96278bb7d4596de3ec322b4097d8fda335c4768cd8d45ed5000d5254390e26"},
		{"verify", []string{"-workers", "2", "verify", "-json"},
			"052f56e53dd26b1f84aee2e7d591db8e171a3bdfadab2fabedfcd1fd4538bfea"},
		{"star fuzz -backend ref", []string{"-db", "star", "-seed", "42", "-workers", "2", "-backend", "ref", "fuzz", "-n", "200", "-json"},
			"22a4707f5dd3ad7675baf9c6eede3a52288b2bd6a34e7d8e5c4b513f62b4cd95"},
		{"verify -backend ref", []string{"-workers", "2", "-backend", "ref", "verify", "-json"},
			"c1abdccfd3dcee83845dcd6d25261c23c772de104885b795c0031c79fd93bb0a"},
	} {
		out, err := exec.Command(bin, c.args...).Output()
		if err != nil {
			t.Errorf("qtrtest %v: %v", c.args, err)
			continue
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(out)); sum != c.sum {
			t.Errorf("%s: report SHA-256 is %s, pinned %s", c.name, sum, c.sum)
		}
	}
}
