package cpufeat

import (
	"runtime"
	"strings"
	"testing"
)

func TestFeaturesString(t *testing.T) {
	s := Features()
	if s == "" {
		t.Fatal("Features() returned empty string; want a feature list or \"none\"")
	}
	if s == "none" {
		if HasAVX2() || feats.fma || feats.avx512f {
			t.Fatalf("Features()=none but features report true (avx2=%v fma=%v avx512f=%v)",
				HasAVX2(), feats.fma, feats.avx512f)
		}
		return
	}
	for _, f := range strings.Split(s, ",") {
		switch f {
		case "avx", "avx2", "fma", "avx512f":
		default:
			t.Fatalf("Features() contains unknown token %q in %q", f, s)
		}
	}
	if HasAVX2() != strings.Contains(s, "avx2") {
		t.Fatalf("HasAVX2()=%v inconsistent with Features()=%q", HasAVX2(), s)
	}
}

func TestImplications(t *testing.T) {
	// avx2 implies avx and OS ymm support; avx512f implies avx2-era
	// state handling. These hold by construction of detect(); guard
	// them so a future refactor can't silently report avx2 without avx.
	if feats.avx2 && !feats.avx {
		t.Fatal("avx2 set without avx")
	}
	if (feats.avx || feats.avx2 || feats.avx512f || feats.fma) && !feats.osxsave {
		t.Fatal("AVX-family feature set without osxsave")
	}
	if runtime.GOARCH != "amd64" && feats != (featureSet{}) {
		t.Fatalf("non-amd64 build detected features: %+v", feats)
	}
}
