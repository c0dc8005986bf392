package floorplan

import "fmt"

// This file defines the indoor scenarios of the paper's evaluation (Sec 5):
// the ~2000 sq ft home of Fig 1 plus the open office, L-shaped corridor and
// wide-room testbed settings. Positions are in meters with the origin at
// the bottom-left corner.

// Home returns the Fig-1 floor plan: a ~14 m × 13 m (≈2000 sq ft) home with
// a living room at the bottom (AP in its corner), two bedrooms at the top
// reached through a central corridor, and the relay position at the
// corridor mouth in the middle of the home.
func Home() *Plan {
	w, h := 14.0, 13.0
	p := &Plan{Width: w, Height: h}
	ext := ExteriorWall
	// Outer shell.
	p.addRect(Point{0, 0}, Point{w, h}, ext)
	// Living room: bottom half, y in [0, 5.5]. Wall along y=5.5 with a
	// corridor opening x in [6, 8].
	p.wall(Point{0, 5.5}, Point{6, 5.5}, Drywall)
	p.wall(Point{8, 5.5}, Point{w, 5.5}, Drywall)
	// Corridor: x in [6,8], y in [5.5, 9]. Side walls.
	p.wall(Point{6, 5.5}, Point{6, 9}, Drywall)
	p.wall(Point{8, 5.5}, Point{8, 9}, Drywall)
	// Bedroom floor divider at y=9 with two door openings.
	p.wall(Point{0, 9}, Point{2.5, 9}, Drywall) // door at [2.5,3.5]
	p.wall(Point{3.5, 9}, Point{6, 9}, Drywall)
	p.wall(Point{8, 9}, Point{10.5, 9}, Drywall) // door at [10.5,11.5]
	p.wall(Point{11.5, 9}, Point{w, 9}, Drywall)
	// Wall between the two bedrooms.
	p.wall(Point{7, 9}, Point{7, h}, Drywall)
	// A partial wall inside the living room (kitchen divider).
	p.wall(Point{9.5, 0}, Point{9.5, 3.5}, Drywall)
	return p
}

// HomeAP returns the paper's AP position: the corner of the living room.
func HomeAP() Point { return Point{1.0, 1.0} }

// HomeRelay returns the relay position at the corridor mouth mid-home.
func HomeRelay() Point { return Point{7.0, 6.2} }

// OpenOffice returns a 20 m × 15 m office with cubicle partition rows and
// a glass-walled meeting area — "open" relative to a home, but obstructed
// enough that coverage degrades away from the AP as in any real office.
func OpenOffice() *Plan {
	w, h := 20.0, 15.0
	p := &Plan{Width: w, Height: h}
	p.addRect(Point{0, 0}, Point{w, h}, ExteriorWall)
	// Cubicle rows (drywall-grade partitions) with aisle gaps.
	p.wall(Point{4, 3}, Point{4, 7}, Drywall)
	p.wall(Point{4, 9}, Point{4, 13}, Drywall)
	p.wall(Point{8, 2}, Point{8, 6}, Drywall)
	p.wall(Point{8, 8}, Point{8, 12}, Drywall)
	p.wall(Point{13, 3}, Point{13, 7}, Drywall)
	p.wall(Point{13, 9}, Point{13, 13}, Drywall)
	// A metal storage row and a glass meeting room.
	p.wall(Point{16, 2}, Point{16, 8}, MetalPartition)
	p.wall(Point{8, 12}, Point{16, 12}, Glass)
	p.wall(Point{2, 7}, Point{7, 7}, Drywall)
	p.wall(Point{10, 7}, Point{15, 7}, Drywall)
	return p
}

// OpenOfficeAP returns the AP corner position for the open office.
func OpenOfficeAP() Point { return Point{1.5, 1.5} }

// OpenOfficeRelay returns the relay position for the open office, placed
// with line of sight to the AP (not behind the metal partition).
func OpenOfficeRelay() Point { return Point{9.0, 7.2} }

// LCorridor returns a corridor-plus-wide-room plan, the pinhole geometry
// of Sec 1: a corridor runs along the bottom, and the rooms above are
// reached only through a single door gap — the corridor and door act as
// the RF pinhole between the AP and room clients.
func LCorridor() *Plan {
	w, h := 16.0, 10.0
	p := &Plan{Width: w, Height: h}
	p.addRect(Point{0, 0}, Point{w, h}, ExteriorWall)
	// Corridor along the bottom (y in [0,2.5]); door gap at x in [7,9].
	p.wall(Point{0, 2.5}, Point{7, 2.5}, Brick)
	p.wall(Point{9, 2.5}, Point{w, 2.5}, Brick)
	// Divider splitting the upper space into two rooms, with its own door
	// near the bottom (gap y in [2.5,4.5]).
	p.wall(Point{8, 4.5}, Point{8, h}, Drywall)
	return p
}

// LCorridorAP returns the AP position at the corridor's end.
func LCorridorAP() Point { return Point{1.0, 1.2} }

// LCorridorRelay returns the relay position: in the corridor just below
// the door gap, with line of sight to the AP and first-bounce coverage of
// the rooms through the doorway.
func LCorridorRelay() Point { return Point{8.2, 1.8} }

// TwoWideRooms returns two large rooms separated by a single concrete wall
// with one door.
func TwoWideRooms() *Plan {
	w, h := 16.0, 10.0
	p := &Plan{Width: w, Height: h}
	p.addRect(Point{0, 0}, Point{w, h}, ExteriorWall)
	p.wall(Point{8, 0}, Point{8, 4}, Concrete) // door at y in [4,5.2]
	p.wall(Point{8, 5.2}, Point{8, h}, Concrete)
	return p
}

// TwoWideRoomsAP returns the AP position in the left room.
func TwoWideRoomsAP() Point { return Point{2.0, 5.0} }

// TwoWideRoomsRelay returns the relay position near the door.
func TwoWideRoomsRelay() Point { return Point{7.2, 4.7} }

// Scenario couples a plan with its AP and relay placements.
type Scenario struct {
	Name  string
	Plan  *Plan
	AP    Point
	Relay Point
}

// Scenarios returns the four evaluation scenarios of Sec 5.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "home", Plan: Home(), AP: HomeAP(), Relay: HomeRelay()},
		{Name: "open-office", Plan: OpenOffice(), AP: OpenOfficeAP(), Relay: OpenOfficeRelay()},
		{Name: "l-corridor", Plan: LCorridor(), AP: LCorridorAP(), Relay: LCorridorRelay()},
		{Name: "two-wide-rooms", Plan: TwoWideRooms(), AP: TwoWideRoomsAP(), Relay: TwoWideRoomsRelay()},
	}
}

func (p *Plan) wall(a, b Point, m Material) {
	p.Walls = append(p.Walls, Wall{A: a, B: b, Material: m})
}

func (p *Plan) addRect(lo, hi Point, m Material) {
	p.wall(Point{lo.X, lo.Y}, Point{hi.X, lo.Y}, m)
	p.wall(Point{hi.X, lo.Y}, Point{hi.X, hi.Y}, m)
	p.wall(Point{hi.X, hi.Y}, Point{lo.X, hi.Y}, m)
	p.wall(Point{lo.X, hi.Y}, Point{lo.X, lo.Y}, m)
}

// Grid returns measurement points on a regular grid with the given spacing
// (meters), inset from the exterior by margin. It panics unless spacing
// is positive: the grid would never advance.
func (p *Plan) Grid(spacing, margin float64) []Point {
	if !(spacing > 0) {
		panic(fmt.Sprintf("floorplan: grid spacing %v is not positive", spacing))
	}
	var pts []Point
	for y := margin; y <= p.Height-margin; y += spacing {
		for x := margin; x <= p.Width-margin; x += spacing {
			pts = append(pts, Point{x, y})
		}
	}
	return pts
}

// Contains reports whether the point is inside the plan bounds.
func (p *Plan) Contains(pt Point) bool {
	return pt.X >= 0 && pt.X <= p.Width && pt.Y >= 0 && pt.Y <= p.Height
}
