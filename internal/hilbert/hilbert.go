// Package hilbert implements the 2-D Hilbert space-filling curve. The ODJ
// algorithm (Fig 10 of the paper) sorts join seeds by Hilbert order to
// maximize buffer locality between consecutive obstacle-R-tree probes.
package hilbert

// Encode maps grid cell (x, y) on a 2^order x 2^order grid to its distance
// along the Hilbert curve. x and y must be < 2^order; order must be <= 31.
func Encode(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = rot(s, x, y, rx, ry)
	}
	return d
}

// Decode is the inverse of Encode: it maps a curve distance back to the grid
// cell (x, y).
func Decode(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint64(1); s < 1<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = rot(uint32(s), x, y, rx, ry)
		x += uint32(s) * rx
		y += uint32(s) * ry
		t /= 4
	}
	return x, y
}

// rot rotates/flips the quadrant per the Hilbert curve recursion.
func rot(s, x, y, rx, ry uint32) (nx, ny uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// DefaultOrder is the grid resolution used when mapping float coordinates:
// 2^16 cells per axis is finer than any dataset in the experiments.
const DefaultOrder = 16

// EncodePoint maps a point in [minX,maxX] x [minY,maxY] to its Hilbert value
// on the DefaultOrder grid. Points outside the box are clamped.
func EncodePoint(x, y, minX, minY, maxX, maxY float64) uint64 {
	n := uint32(1)<<DefaultOrder - 1
	gx := scale(x, minX, maxX, n)
	gy := scale(y, minY, maxY, n)
	return Encode(DefaultOrder, gx, gy)
}

func scale(v, lo, hi float64, n uint32) uint32 {
	if hi <= lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint32(f * float64(n))
}
