package cluster

import (
	"fmt"

	"wearmem/internal/failmap"
	"wearmem/internal/stats"
)

// Array manages the clustering regions of a whole PCM module and models the
// redirection-map cache. A nil *Array means clustering hardware is absent:
// Translate is the identity and Fail surfaces failures in place.
type Array struct {
	regionPages int
	regionLines int
	totalLines  int
	regions     []*Region // nil until first touched
	cache       *MapCache
	clock       *stats.Clock // may be nil
}

// NewArray returns clustering hardware for a module of size bytes organized
// in regions of regionPages pages. cacheEntries bounds the map cache; clock
// may be nil to disable cost accounting.
func NewArray(size, regionPages, cacheEntries int, clock *stats.Clock) *Array {
	if size <= 0 || size%(regionPages*failmap.PageSize) != 0 {
		panic(fmt.Sprintf("cluster: size %d not a multiple of the %d-page region", size, regionPages))
	}
	rl := regionPages * failmap.LinesPerPage
	total := size / failmap.LineSize
	return &Array{
		regionPages: regionPages,
		regionLines: rl,
		totalLines:  total,
		regions:     make([]*Region, total/rl),
		cache:       NewMapCache(cacheEntries),
		clock:       clock,
	}
}

// RegionPages returns the clustering granularity in pages.
func (a *Array) RegionPages() int {
	if a == nil {
		return 0
	}
	return a.regionPages
}

func (a *Array) region(line int) (*Region, int) {
	idx := line / a.regionLines
	if a.regions[idx] == nil {
		a.regions[idx] = NewRegion(idx, a.regionPages)
	}
	return a.regions[idx], line % a.regionLines
}

// Translate maps a module-visible line number to the storage line actually
// accessed, charging redirection costs when the region has an installed
// map. Without clustering hardware (nil Array) it is the identity.
func (a *Array) Translate(line int) int {
	if a == nil {
		return line
	}
	if line < 0 || line >= a.totalLines {
		panic(fmt.Sprintf("cluster: line %d out of module range", line))
	}
	idx := line / a.regionLines
	r := a.regions[idx]
	if r == nil || !r.installed {
		// Common case: no failures in the region, single memory access.
		return line
	}
	off := line % a.regionLines
	if a.clock != nil {
		if a.cache.Touch(idx) {
			a.clock.Charge1(stats.EvRedirectHit)
		} else {
			a.clock.Charge1(stats.EvRedirectMiss)
		}
	} else {
		a.cache.Touch(idx)
	}
	return idx*a.regionLines + r.Storage(off)
}

// Fail records a permanent failure of the storage currently backing
// module-visible line. It returns the module-visible lines that became
// unavailable to software (metadata lines on first failure in the region,
// then the surfaced failure). Without clustering hardware the failure
// surfaces in place.
func (a *Array) Fail(line int) []int {
	if a == nil {
		return []int{line}
	}
	r, off := a.region(line)
	base := (line / a.regionLines) * a.regionLines
	locals := r.Fail(off)
	out := make([]int, len(locals))
	for i, l := range locals {
		out[i] = base + l
	}
	return out
}

// Unavailable reports whether the module-visible line is unusable by
// software.
func (a *Array) Unavailable(line int) bool {
	if a == nil {
		return false
	}
	idx := line / a.regionLines
	r := a.regions[idx]
	if r == nil {
		return false
	}
	return r.Unavailable(line % a.regionLines)
}

// FailMap renders the module-visible unavailable lines as a failure map of
// the given byte size (a whole-page prefix of the module), one page word at
// a time; a region never touched is skipped.
func (a *Array) FailMap(size int) *failmap.Map {
	m := failmap.New(size)
	if a == nil {
		return m
	}
	for p := 0; p < m.Pages() && p < len(a.regions)*a.regionPages; p++ {
		r := a.regions[p/a.regionPages]
		if r == nil {
			continue
		}
		var bm uint64
		for l, un := range r.presented[p%a.regionPages*failmap.LinesPerPage:][:failmap.LinesPerPage] {
			if un {
				bm |= 1 << uint(l)
			}
		}
		m.SetPageBitmap(p, bm)
	}
	return m
}

// Validate checks invariants on every instantiated region.
func (a *Array) Validate() error {
	if a == nil {
		return nil
	}
	for i, r := range a.regions {
		if r == nil {
			continue
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("region %d: %w", i, err)
		}
	}
	return nil
}

// MapCache is a tiny LRU over region indices modelling the redirection-map
// cache: a Touch that hits costs one access, a miss costs the three-access
// redirection sequence of §3.1.2.
type MapCache struct {
	capacity int
	order    []int // most recent last
}

// NewMapCache returns a cache holding up to capacity region maps.
// capacity <= 0 disables caching (every lookup misses).
func NewMapCache(capacity int) *MapCache {
	return &MapCache{capacity: capacity}
}

// Touch records a use of region idx and reports whether it hit.
func (c *MapCache) Touch(idx int) bool {
	for i, v := range c.order {
		if v == idx {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), idx)
			return true
		}
	}
	if c.capacity <= 0 {
		return false
	}
	if len(c.order) >= c.capacity {
		c.order = c.order[1:]
	}
	c.order = append(c.order, idx)
	return false
}

// Len returns the number of cached region maps.
func (c *MapCache) Len() int { return len(c.order) }
