package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"goptm/internal/core"
)

// TestImageSumMatchesFNV: the zero-page shortcut is an identity, not an
// approximation — imageSum equals plain FNV-1a on every input, whether
// a page is all zero, has no zero byte, or hides one non-zero byte, at
// any length and from any starting state.
func TestImageSumMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 1))
	lengths := []int{0, 1, 4095, 4096, 4097, 2 * 4096, 3*4096 + 17, 5*4096 - 1}
	starts := []uint64{fnvOffset64, 0, rng.Uint64(), rng.Uint64()}
	fills := []struct {
		name string
		fill func(b []byte)
	}{
		{"all zero", func(b []byte) {}},
		{"all non-zero", func(b []byte) {
			for i := range b {
				b[i] = byte(1 + rng.IntN(255))
			}
		}},
		{"one non-zero byte", func(b []byte) {
			if len(b) > 0 {
				b[rng.IntN(len(b))] = byte(1 + rng.IntN(255))
			}
		}},
		{"zero and non-zero pages", func(b []byte) {
			for p := 0; p < len(b); p += imagePage {
				if rng.IntN(2) == 0 {
					b[p+rng.IntN(min(imagePage, len(b)-p))] = 0x80
				}
			}
		}},
	}
	for _, f := range fills {
		for _, n := range lengths {
			for _, h := range starts {
				b := make([]byte, n)
				f.fill(b)
				if got, want := imageSum(h, b), fnv64(h, b); got != want {
					t.Errorf("%s, %d bytes, h %#x: imageSum %#x, fnv64 %#x", f.name, n, h, got, want)
				}
			}
		}
	}
	// A non-zero byte at either edge of a zero page.
	for _, at := range []int{0, imagePage - 1, imagePage, 2*imagePage - 1} {
		b := make([]byte, 2*imagePage)
		b[at] = 1
		if got, want := imageSum(fnvOffset64, b), fnv64(fnvOffset64, b); got != want {
			t.Errorf("byte at %d: imageSum %#x, fnv64 %#x", at, got, want)
		}
	}
}

// TestSaveImageBytesPinned pins the image file format: a fixed store,
// power-failed and saved, must produce exactly the bytes every earlier
// build wrote. A change to how the image is read, encoded, summed or
// written that moves one byte fails here.
func TestSaveImageBytesPinned(t *testing.T) {
	const want = "cb5be33be2ca312fa5cdb09ff6f0ff1aec257f84daed27df20c1ac3e1eb96088"
	st, err := Open(StoreConfig{Shards: 2, Heap: 1 << 18, Lockstep: true})
	if err != nil {
		t.Fatal(err)
	}
	th := st.TM().Thread(0)
	kv := st.KV()
	for i := 0; i < 64; i++ {
		th.Atomic(func(tx *core.Tx) {
			if err := kv.Set(tx, fmt.Appendf(nil, "pin-%d", i), fmt.Appendf(nil, "value-%d", i*i), uint32(i)); err != nil {
				t.Fatal(err)
			}
		})
	}
	th.Detach()
	st.Bus().Crash(math.MaxInt64)
	path := filepath.Join(t.TempDir(), "kv.img")
	if err := st.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("image sha256 %x (%d bytes), want %s", sum, len(b), want)
	}
}
