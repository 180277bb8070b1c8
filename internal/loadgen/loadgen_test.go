package loadgen

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestKeyDistDeterminism: equal seeds replay the identical key sequence,
// different seeds do not (so seed-replay of a benchmark is meaningful).
func TestKeyDistDeterminism(t *testing.T) {
	for _, dist := range []string{DistUniform, DistZipf} {
		draw := func(seed int64) []int {
			d, err := NewKeyDist(dist, 1.2, 16, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int, 200)
			for i := range out {
				out[i] = d.Next()
			}
			return out
		}
		a, b, c := draw(42), draw(42), draw(43)
		same, diff := true, false
		for i := range a {
			same = same && a[i] == b[i]
			diff = diff || a[i] != c[i]
		}
		if !same {
			t.Errorf("%s: two seed-42 sequences diverged", dist)
		}
		if !diff {
			t.Errorf("%s: seed 42 and 43 produced identical sequences", dist)
		}
	}
}

// TestUniformDistSpread: with many samples every key gets close to its
// 1/k share.
func TestUniformDistSpread(t *testing.T) {
	const k, n = 8, 20000
	d, err := NewKeyDist(DistUniform, 0, k, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		key := d.Next()
		if key < 0 || key >= k {
			t.Fatalf("key %d out of range", key)
		}
		counts[key]++
	}
	want := float64(n) / k
	for key, got := range counts {
		if math.Abs(float64(got)-want) > 0.2*want {
			t.Errorf("key %d drawn %d times, want ~%.0f", key, got, want)
		}
	}
}

// TestZipfDistSkew: key 0 must dominate and the distribution must be
// monotone-ish — the head clearly above the uniform share, the tail
// clearly below.
func TestZipfDistSkew(t *testing.T) {
	const k, n = 16, 20000
	d, err := NewKeyDist(DistZipf, 1.2, k, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		key := d.Next()
		if key < 0 || key >= k {
			t.Fatalf("key %d out of range", key)
		}
		counts[key]++
	}
	uniformShare := float64(n) / k
	if float64(counts[0]) < 2*uniformShare {
		t.Errorf("zipf head drew %d, want well above uniform share %.0f", counts[0], uniformShare)
	}
	if float64(counts[k-1]) > uniformShare {
		t.Errorf("zipf tail drew %d, want below uniform share %.0f", counts[k-1], uniformShare)
	}
	if counts[0] <= counts[k-1] {
		t.Errorf("zipf head (%d) not above tail (%d)", counts[0], counts[k-1])
	}
}

// TestInterarrivalMean: the Poisson clock's gaps average 1/rate.
func TestInterarrivalMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rate = 1000.0 // 1ms mean
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		g := Interarrival(rng, rate)
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean := sum / n
	if mean < 900*time.Microsecond || mean > 1100*time.Microsecond {
		t.Errorf("mean interarrival %v, want ~1ms", mean)
	}
}

// TestThinkTime: zero mean means no thinking; a positive mean averages out.
func TestThinkTime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := ThinkTime(rng, 0); got != 0 {
		t.Errorf("zero-mean think time = %v", got)
	}
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += ThinkTime(rng, 2*time.Millisecond)
	}
	mean := sum / n
	if mean < 1800*time.Microsecond || mean > 2200*time.Microsecond {
		t.Errorf("mean think time %v, want ~2ms", mean)
	}
}

// TestConfigValidation: the defaulting and rejection rules clients depend
// on.
func TestConfigValidation(t *testing.T) {
	if _, err := (Config{N: 9, Measure: time.Second, Driver: "carrier-pigeon"}).withDefaults(); err == nil {
		t.Error("unknown driver accepted")
	}
	if _, err := (Config{N: 1, Measure: time.Second}).withDefaults(); err == nil {
		t.Error("single-site cluster accepted")
	}
	if _, err := (Config{N: 9, Measure: time.Second, Arrival: ArrivalOpen}).withDefaults(); err == nil {
		t.Error("open loop without a rate accepted")
	}
	if _, err := (Config{N: 9, Measure: time.Second, Dist: DistZipf, ZipfS: 0.5}).withDefaults(); err == nil {
		t.Error("zipf with s <= 1 accepted")
	}
	if _, err := (Config{N: 9, Measure: time.Second, Driver: DriverTCP, Protocol: "maekawa"}).withDefaults(); err != nil {
		t.Errorf("TCP driver rejected maekawa: %v (it rides the §3.1 inline bodies)", err)
	}
	if _, err := RunAB(Config{N: 9, Measure: time.Second, Protocol: "lamport"}); err == nil {
		t.Error("A/B accepted a protocol that is neither delay-optimal nor maekawa")
	}
	if _, err := (Config{N: 9, Measure: time.Second, Driver: DriverTCP, Chaos: &ChaosPlanConfig{Drop: 0.1}}).withDefaults(); err == nil {
		t.Error("TCP driver accepted a chaos plan")
	}
	cfg, err := (Config{N: 9, Measure: time.Second}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Driver != DriverInproc || cfg.Workers != 9 || cfg.Resources != 1 ||
		cfg.Dist != DistUniform || cfg.Arrival != ArrivalClosed || cfg.Drain == 0 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if _, err := (Config{N: 9, Measure: time.Second, Dist: DistZipf}).withDefaults(); err != nil {
		t.Errorf("zipf default exponent rejected: %v", err)
	}
}

// TestReadArtifactOldCodecField: artifacts written while a run could pick
// its wire codec carry a "codec" key per run; they must still load.
func TestReadArtifactOldCodecField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_live_old.json")
	old := `{"schema": "` + SchemaVersion + `", "name": "old", "runs": [
		{"driver": "tcp", "protocol": "delay-optimal", "quorum": "grid", "codec": "gob", "n": 9, "ops": 120}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 1 || a.Runs[0].Driver != DriverTCP || a.Runs[0].N != 9 || a.Runs[0].Ops != 120 {
		t.Errorf("old artifact read back as %+v", a.Runs)
	}
}
