package engine_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// TestRangeNearMaxInt64 pins `to` at the int64 edges: a range ending at
// MaxInt64 must stop there instead of wrapping, and the size guard must
// not overflow on the widest bounds. The evaluation runs under a context
// deadline, so a non-terminating range fails the test (the row loop
// observes cancellation) instead of hanging it.
func TestRangeNearMaxInt64(t *testing.T) {
	cases := []struct {
		query, want, wantErr string
	}{
		{query: `count(9223372036854775806 to 9223372036854775807)`, want: "2"},
		{query: `9223372036854775806 to 9223372036854775807`, want: "9223372036854775806 9223372036854775807"},
		{query: `count(-9223372036854775807 to 9223372036854775807)`, wantErr: "too large"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 8} {
			e := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: workers, SeqThreshold: -1, Check: true})
			plan, _, err := core.CompileQuery(c.query, xqcore.Options{})
			if err != nil {
				t.Fatalf("%s: %v", c.query, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			res, err := e.EvalContext(ctx, plan)
			cancel()
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Errorf("%s (workers=%d): err = %v, want %q", c.query, workers, err, c.wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s (workers=%d): %v", c.query, workers, err)
				continue
			}
			got, err := serialize.Result(e.Store, res)
			if err != nil || got != c.want {
				t.Errorf("%s (workers=%d) = %q, %v; want %q", c.query, workers, got, err, c.want)
			}
		}
	}
}
