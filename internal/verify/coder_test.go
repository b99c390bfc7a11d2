package verify

import (
	"fmt"

	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// CheckCoderShifts checks the identity the replay's read check rests on:
// at every point g of ts's space and for every dependence d_l,
// enc(g) − shift(d_l) = enc(g − d_l), a nonzero code. It returns how many
// (point, dependence) pairs it checked.
func CheckCoderShifts(ts *tiling.TiledSpace) (int64, error) {
	c, err := newPointCoder(ts)
	if err != nil {
		return 0, err
	}
	bounds, err := ts.Nest.Bounds()
	if err != nil {
		return 0, err
	}
	var pairs int64
	bounds.Scan(func(g ilin.Vec) bool {
		for l := 0; l < ts.Nest.Q(); l++ {
			dep := ts.Nest.Dep(l)
			want := c.enc(g.Sub(dep))
			if got := c.enc(g) - c.shift(dep); got != want || want == 0 {
				err = fmt.Errorf("at %v through d_%d = %v: enc(g) − shift(d) = %d, enc(g − d) = %d", g, l+1, dep, got, want)
				return false
			}
			pairs++
		}
		return true
	})
	return pairs, err
}
