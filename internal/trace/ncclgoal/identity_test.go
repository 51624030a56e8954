package ncclgoal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"atlahs/internal/goal"
	"atlahs/internal/workload/llm"
)

// TestConversionIdentity pins the pipeline's output byte for byte: a
// seeded LLM trace converted through Generate and encoded as binary GOAL
// must hash to the recorded digest. Any change to op order, dependency
// order, tags or stream assignment shows up here, so performance work on
// the builder and the pipeline cannot silently change a schedule.
func TestConversionIdentity(t *testing.T) {
	cases := []struct {
		name string
		par  llm.Parallelism
		want string
	}{
		{"llama7b-dp8", llm.Parallelism{TP: 1, PP: 1, DP: 8, EP: 1, GlobalBatch: 8}, "4f6af0129a4f523129a47b8279acbd58b7909d2e58d705b3313e58878c372df4"},
		{"llama7b-tp2-pp2-dp2", llm.Parallelism{TP: 2, PP: 2, DP: 2, EP: 1, GlobalBatch: 8}, "2782cad022a8b385d194533f4c5f2237eaf0fda2369bcc42d4b4955236f4c4fe"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := llm.Generate(llm.Config{
				Model:      llm.Llama7B(),
				Par:        tc.par,
				Iterations: 2,
				Scale:      5e-5,
				Seed:       1,
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Generate(rep, Config{GPUsPerNode: 4})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := goal.WriteBinary(&buf, s); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("binary GOAL sha256 = %s, want %s (%d ranks, %d bytes)", got, tc.want, s.NumRanks(), buf.Len())
			}
		})
	}
}
