package geo

import (
	"fmt"
	"math"
)

// Voronoi partitions a bounding box among a fixed set of sites (edge-server
// locations in the paper): every query point belongs to the cell of its
// nearest site. This is the discrete nearest-site formulation the paper uses
// ("the whole area is partitioned into a set of Voronoi cells [18]; each cell
// has one edge server, which is the closest edge server to all the locations
// within this cell").
type Voronoi struct {
	sites []Point
	index *GridIndex
}

// NewVoronoi builds a Voronoi partition of box with the given sites.
func NewVoronoi(box BBox, sites []Point) (*Voronoi, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("geo: voronoi requires at least one site")
	}
	// Grid resolution ~ 4x the site count per axis keeps cells small relative
	// to typical inter-site spacing without excessive memory.
	n := int(math.Ceil(math.Sqrt(float64(len(sites))))) * 4
	if n < 8 {
		n = 8
	}
	idx, err := NewGridIndex(box, n, n, sites)
	if err != nil {
		return nil, fmt.Errorf("geo: building voronoi index: %w", err)
	}
	return &Voronoi{sites: append([]Point(nil), sites...), index: idx}, nil
}

// NumCells returns the number of Voronoi cells (sites).
func (v *Voronoi) NumCells() int { return len(v.sites) }

// CellOf returns the index of the cell containing p, i.e. the nearest site.
func (v *Voronoi) CellOf(p Point) int {
	i, _ := v.index.Nearest(p)
	return i
}

// Assign maps each point to its cell. The result has len(pts) entries.
func (v *Voronoi) Assign(pts []Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = v.CellOf(p)
	}
	return out
}

// CellCounts returns, for each cell, how many of pts fall inside it.
func (v *Voronoi) CellCounts(pts []Point) []int {
	counts := make([]int, len(v.sites))
	for _, p := range pts {
		counts[v.CellOf(p)]++
	}
	return counts
}

// FarthestPointSample selects k points from candidates that are approximately
// evenly spread: it starts from the candidate nearest the centroid and
// greedily adds the candidate farthest from the already-selected set. It
// returns the selected candidate indices in selection order.
//
// Algorithm 1 in the paper requires seed segments "distributed in the area";
// farthest-point sampling is the standard way to realize that requirement.
func FarthestPointSample(candidates []Point, k int) []int {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	if k >= len(candidates) {
		out := make([]int, len(candidates))
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Start near the centroid for determinism and central coverage.
	var cLat, cLon float64
	for _, p := range candidates {
		cLat += p.Lat
		cLon += p.Lon
	}
	centroid := Point{Lat: cLat / float64(len(candidates)), Lon: cLon / float64(len(candidates))}
	first, bestD := 0, math.Inf(1)
	for i, p := range candidates {
		if d := Equirectangular(centroid, p); d < bestD {
			bestD, first = d, i
		}
	}

	selected := make([]int, 0, k)
	selected = append(selected, first)
	minDist := make([]float64, len(candidates))
	for i, p := range candidates {
		minDist[i] = Equirectangular(candidates[first], p)
	}
	for len(selected) < k {
		next, far := -1, -1.0
		for i, d := range minDist {
			if d > far {
				far, next = d, i
			}
		}
		selected = append(selected, next)
		for i, p := range candidates {
			if d := Equirectangular(candidates[next], p); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return selected
}
