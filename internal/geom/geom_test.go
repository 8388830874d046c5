package geom

import "testing"

func TestWrapDist(t *testing.T) {
	if wrapDist(3, 4) != 1 || wrapDist(-3, 4) != 1 || wrapDist(2, 4) != 2 || wrapDist(0, 4) != 0 {
		t.Error("wrapDist wrong")
	}
}
