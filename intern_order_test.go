package qtrtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"qtrtest/internal/datum"
)

// internOrderHelperEnv selects a helper process of
// TestInternOrderNeverReachesReports and gives its mode and directory as
// "shuffled:<dir>" or "plain:<dir>". The helper reads the catalog strings
// from <dir>/strings, interns them in a seeded shuffled order first when
// shuffled, and writes the campaigns' reports to <dir>/reports and the
// strings' intern IDs to <dir>/ids.
const internOrderHelperEnv = "QTRTEST_INTERN_ORDER_HELPER"

// TestInternOrderNeverReachesReports: a string datum's payload is its intern
// ID, and IDs follow interning order, which scheduling may change; reports
// are byte-identical only because no output reads an ID. Two helper
// processes run the library campaigns behind TestCampaignReportGoldens — the
// star fuzz campaign, the verifier and the validated pair suite — one after
// interning every string of the TPC-H and star catalogs in a seeded shuffled
// order before any catalog loads, one in the order the campaigns reach them.
// Their reports must be the same bytes, and the strings' IDs must differ.
func TestInternOrderNeverReachesReports(t *testing.T) {
	if mode, dir, ok := strings.Cut(os.Getenv(internOrderHelperEnv), ":"); ok {
		internOrderHelper(t, mode == "shuffled", dir)
		return
	}
	if testing.Short() {
		t.Skip("runs three campaigns in each of two processes")
	}
	var strs []string
	seen := map[string]bool{}
	for _, db := range []*DB{OpenTPCH(1, 42), OpenStar(1, 42)} {
		for _, name := range db.Catalog.TableNames() {
			for _, row := range db.Catalog.MustTable(name).Rows {
				for _, d := range row {
					if s := d.Str(); d.K == datum.KindString && !seen[s] {
						seen[s] = true
						strs = append(strs, s)
					}
				}
			}
		}
	}
	data, err := json.Marshal(strs)
	if err != nil {
		t.Fatal(err)
	}
	helper := func(mode string) (reports, ids []byte) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "strings"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestInternOrderNeverReachesReports$", "-test.timeout=10m")
		cmd.Env = append(os.Environ(), internOrderHelperEnv+"="+mode+":"+dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s helper process: %v\n%s", mode, err, out)
		}
		if reports, err = os.ReadFile(filepath.Join(dir, "reports")); err == nil {
			ids, err = os.ReadFile(filepath.Join(dir, "ids"))
		}
		if err != nil {
			t.Fatal(err)
		}
		return reports, ids
	}
	want, plainIDs := helper("plain")
	got, shuffledIDs := helper("shuffled")
	t.Logf("%d catalog strings interned first in shuffled order; %d report bytes", len(strs), len(want))
	if bytes.Equal(plainIDs, shuffledIDs) {
		t.Fatal("the shuffled helper gave the catalog strings the IDs the plain one did")
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("reports differ when the catalog strings are interned in another order:\n--- load order\n%s\n--- shuffled\n%s", want, got)
	}
}

// internOrderHelper is the helper process's side: when shuffled, intern the
// strings in dir in a seeded shuffled order; then run the campaigns and write
// their reports, and the strings' IDs, to dir.
func internOrderHelper(t *testing.T, shuffled bool, dir string) {
	data, err := os.ReadFile(filepath.Join(dir, "strings"))
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	if err := json.Unmarshal(data, &strs); err != nil {
		t.Fatal(err)
	}
	if shuffled {
		order := append([]string(nil), strs...)
		rand.New(rand.NewSource(7)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, s := range order {
			datum.NewString(s)
		}
	}
	var out bytes.Buffer

	// qtrtest -db star -seed 42 -workers 2 fuzz -n 200 -json
	star := OpenStar(1, 42)
	fuzzRep, err := star.Fuzz(FuzzConfig{Seed: 42, N: 200, Workers: 2, DB: "star", Cache: NewResultCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if data, err = fuzzRep.JSON(); err != nil {
		t.Fatal(err)
	}
	out.Write(data)

	// qtrtest -workers 2 verify -json
	verifyRep, err := VerifyRules(VerifyConfig{Workers: 2, Cache: NewResultCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if data, err = verifyRep.JSON(); err != nil {
		t.Fatal(err)
	}
	out.Write(data)

	// qtrtest -seed 42 -workers 2 suite -pairs -n 6 -k 3 -algo topk -validate
	tpch := OpenTPCH(1, 42)
	g, err := tpch.GenerateSuite(PairTargets(tpch.ExplorationRuleIDs(6)), SuiteConfig{K: 3, Seed: 42, ExtraOps: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.TopKIndependent()
	if err != nil {
		t.Fatal(err)
	}
	g.SetCache(NewResultCache(0))
	rep, err := g.Run(sol, tpch.Optimizer, tpch.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "%s: cost %.0f, %d optimizer calls\n", sol.Name, sol.TotalCost, sol.OptimizerCalls)
	for _, a := range sol.Assignments {
		fmt.Fprintf(&out, "target %d <- query %d: %s\n", a.Target, a.Query, g.Queries[a.Query].SQL)
	}
	fmt.Fprintf(&out, "validation: %d plan executions, %d skipped, %d mismatches, %d undetermined\n",
		rep.PlanExecutions, rep.SkippedIdentical, len(rep.Mismatches), len(rep.Undetermined))
	for _, m := range rep.Mismatches {
		fmt.Fprintf(&out, "BUG %s: %s\n", m.Target, m.Detail)
	}
	for _, u := range rep.Undetermined {
		fmt.Fprintf(&out, "UNDETERMINED %s: %s\n", u.Target, u.Detail)
	}
	ids := make([]int64, len(strs))
	for i, s := range strs {
		ids[i] = datum.NewString(s).I
	}
	if data, err = json.Marshal(ids); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ids"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "reports"), out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
