package tune

import (
	"testing"

	"phasehash/internal/core"
)

func TestShardsForwardsToCore(t *testing.T) {
	for _, size := range []int{1, 1 << 12, 1 << 13, 1 << 15, 1 << 20, 1 << 25} {
		if got, want := Shards(size, 4, 8000), core.DefaultShards(size); got != want {
			t.Errorf("Shards(%d, 4, 8000) = %d, want core.DefaultShards = %d", size, got, want)
		}
	}
}
