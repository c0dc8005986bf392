// Package floorplan provides a 2-D indoor propagation model: floor plans
// made of walls with material-dependent losses, image-method ray tracing
// with up to second-order specular reflections, and conversion of traced
// paths into the tapped-delay-line channels of the channel package —
// including MIMO channels built from per-path angles of departure/arrival
// and λ/2 antenna arrays, which makes corridor "pinhole" rank collapse an
// emergent geometric effect exactly as Sec 1 of the paper describes.
//
// It stands in for the commercial ray-propagation software (Remcom
// Wireless InSite) the paper used for its Fig 1/2 coverage maps.
package floorplan

import "math"

// Point is a 2-D position in meters.
type Point struct {
	X, Y float64
}

// Sub returns p - q as a vector.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the distance between two points.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Angle returns the direction of the vector in radians.
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// Material describes a wall's RF properties at 2.4 GHz.
type Material struct {
	// Name is a human-readable label.
	Name string
	// PenetrationLossDB is the loss for passing through the wall.
	PenetrationLossDB float64
	// ReflectionLossDB is the loss on specular reflection.
	ReflectionLossDB float64
}

// Common materials with typical 2.4 GHz losses.
var (
	Drywall        = Material{Name: "drywall", PenetrationLossDB: 6, ReflectionLossDB: 10}
	Concrete       = Material{Name: "concrete", PenetrationLossDB: 15, ReflectionLossDB: 5}
	Brick          = Material{Name: "brick", PenetrationLossDB: 11, ReflectionLossDB: 6}
	Glass          = Material{Name: "glass", PenetrationLossDB: 2, ReflectionLossDB: 12}
	ExteriorWall   = Material{Name: "exterior", PenetrationLossDB: 15, ReflectionLossDB: 4}
	MetalPartition = Material{Name: "metal", PenetrationLossDB: 26, ReflectionLossDB: 1}
)

// Wall is a line segment with a material.
type Wall struct {
	A, B     Point
	Material Material
}

// segmentIntersection finds the intersection of segments p1-p2 and q1-q2.
// It returns the parameter t along p1-p2 (0..1) and ok.
func segmentIntersection(p1, p2, q1, q2 Point) (t float64, ok bool) {
	r := p2.Sub(p1)
	s := q2.Sub(q1)
	denom := r.X*s.Y - r.Y*s.X
	if math.Abs(denom) < 1e-12 {
		return 0, false // parallel
	}
	qp := q1.Sub(p1)
	t = (qp.X*s.Y - qp.Y*s.X) / denom
	u := (qp.X*r.Y - qp.Y*r.X) / denom
	const eps = 1e-9
	if t < eps || t > 1-eps || u < -eps || u > 1+eps {
		return 0, false
	}
	return t, true
}

// crossings returns the walls crossed by the open segment a-b, excluding
// any wall in the skip set (reflecting walls are not "penetrated" at their
// own reflection point).
func crossings(walls []Wall, a, b Point, skip map[int]bool) []int {
	var out []int
	for i, w := range walls {
		if skip != nil && skip[i] {
			continue
		}
		if _, ok := segmentIntersection(a, b, w.A, w.B); ok {
			out = append(out, i)
		}
	}
	return out
}

// mirror reflects point p across the infinite line through wall w.
func mirror(p Point, w Wall) Point {
	d := w.B.Sub(w.A)
	n2 := d.Dot(d)
	if n2 == 0 {
		return p
	}
	t := p.Sub(w.A).Dot(d) / n2
	proj := w.A.Add(d.Scale(t))
	return proj.Add(proj.Sub(p))
}

// reflectionPoint finds where the ray from src (mirrored) to dst crosses
// wall w, returning the point and ok.
func reflectionPoint(img, dst Point, w Wall) (Point, bool) {
	t, ok := segmentIntersection(img, dst, w.A, w.B)
	if !ok {
		return Point{}, false
	}
	dir := dst.Sub(img)
	return img.Add(dir.Scale(t)), true
}
