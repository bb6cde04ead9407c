package tune

import "testing"

// TestShardsStaticEquivalence pins the zero-gauge policy to the legacy
// static policy: 4× workers, capped at MaxAutoShards, halved until
// every shard keeps MinShardCells cells, power of two.
func TestShardsStaticEquivalence(t *testing.T) {
	cases := []struct {
		size, workers int
		want          int
	}{
		{1 << 20, 4, 16},    // plenty of cells: 4*4
		{1 << 20, 8, 32},    // 4*8
		{1 << 12, 8, 1},     // 4096 cells: halves all the way down
		{1 << 15, 4, 8},     // 32768/16 = 2048 < 4096 -> halve to 8 (4096 each)
		{1 << 30, 128, 256}, // capped at MaxAutoShards
		{100, 1, 1},         // tiny table
		{1 << 20, 0, 4},     // workers<1 coerced to 1 -> 4*1
	}
	for _, c := range cases {
		if got := Shards(c.size, c.workers, 0); got != c.want {
			t.Errorf("Shards(%d, %d, 0) = %d, want %d", c.size, c.workers, got, c.want)
		}
	}
}

// TestShardsHighImbalance asserts the gauge response: at or above
// HighImbalancePm the policy drops to one shard per worker (still
// power-of-two, still capacity-clamped); below the threshold it is
// untouched.
func TestShardsHighImbalance(t *testing.T) {
	if got, want := Shards(1<<20, 8, HighImbalancePm), 8; got != want {
		t.Errorf("skewed Shards = %d, want %d (one per worker)", got, want)
	}
	if got, want := Shards(1<<20, 8, HighImbalancePm-1), 32; got != want {
		t.Errorf("just-below-threshold Shards = %d, want static %d", got, want)
	}
	// Capacity clamp still applies under skew.
	if got, want := Shards(1<<13, 8, HighImbalancePm), 2; got != want {
		t.Errorf("skewed small-table Shards = %d, want %d", got, want)
	}
	// Power-of-two even for non-power worker counts.
	if got := Shards(1<<20, 6, HighImbalancePm); got != 8 {
		t.Errorf("skewed Shards(workers=6) = %d, want 8 (rounded up)", got)
	}
}
