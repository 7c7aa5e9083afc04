// Package shard spatially partitions a join deployment: one dataset (or a
// P/Q dataset pair) is cut into a grid of `.rcjx` shard indexes plus a
// versioned, checksummed manifest (`.rcjm`) describing the partition, so a
// fleet of rcjd workers can each own a subset of the data and a router can
// scatter-gather queries across them (internal/router).
//
// The partition is by *pair ownership*, not point ownership: a shard owns
// every result pair whose enclosing-circle center (the midpoint of the two
// points) falls inside the shard's grid cell. Because a sharded deployment
// declares its maximum serveable ring diameter D at build time, both
// endpoints of an owned pair and every possible witness point of its circle
// lie within D/2 of the center — so duplicating each point into every cell
// it is within the overlap margin (≥ D/2) of makes each shard fully
// self-sufficient: the worker filters AND verifies its owned pairs exactly,
// with no cross-shard traffic. The router restricts each shard to its cell
// with a Region sub-query and enforces max_diameter ≤ D, which together
// make the union of per-shard answers exactly the unsharded join (pairs
// whose center lies exactly on a shared cell edge are emitted by the
// adjacent shards and deduplicated by the router).
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Ext is the manifest file extension.
const Ext = ".rcjm"

// Version is the current manifest format version.
const Version = 1

var (
	// ErrBadManifest reports a structurally invalid manifest.
	ErrBadManifest = errors.New("shard: bad manifest")
	// ErrBadVersion reports a manifest version this build cannot read.
	ErrBadVersion = errors.New("shard: unsupported manifest version")
	// ErrBadChecksum reports manifest content that does not match its
	// embedded checksum — a corrupted or hand-edited file.
	ErrBadChecksum = errors.New("shard: manifest checksum mismatch")
)

// Rect is an axis-aligned rectangle as [minX, minY, maxX, maxY] — the
// wire form shard cells and bounds use, matching the `region` array of the
// /join request.
type Rect [4]float64

// Intersects reports whether the closed rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	return r[0] <= o[2] && o[0] <= r[2] && r[1] <= o[3] && o[1] <= r[3]
}

// Intersect returns the closed intersection and whether it is non-empty.
func (r Rect) Intersect(o Rect) (Rect, bool) {
	out := Rect{max(r[0], o[0]), max(r[1], o[1]), min(r[2], o[2]), min(r[3], o[3])}
	return out, out[0] <= out[2] && out[1] <= out[3]
}

// Contains reports whether the closed rectangle contains the point.
func (r Rect) Contains(x, y float64) bool {
	return x >= r[0] && x <= r[2] && y >= r[1] && y <= r[3]
}

// Expand grows the rectangle by m on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{r[0] - m, r[1] - m, r[2] + m, r[3] + m}
}

// Shard describes one grid cell of the partition and the index files
// holding its points (cell expanded by the manifest's overlap margin).
type Shard struct {
	ID int `json:"id"`
	// Cell is the shard's owned region: the shard answers exactly the pairs
	// whose circle center lies in this closed rectangle. Interior cell
	// edges are shared with the adjacent shard; the router dedupes pairs
	// centered exactly on them.
	Cell Rect `json:"cell"`
	// P and Q are the shard's `.rcjx` sources — paths relative to the
	// manifest file, absolute paths, or http(s) URLs. Q is empty in a
	// single-dataset (self-join) manifest. Both are empty when the shard
	// owns no points at all (PCount and QCount zero): such a shard can
	// produce no pairs and is never contacted.
	P string `json:"p,omitempty"`
	Q string `json:"q,omitempty"`
	// PCount/QCount are the number of points in each shard index —
	// cell+margin residents, so points near cell edges count in several
	// shards.
	PCount int `json:"p_count"`
	QCount int `json:"q_count"`
}

// Empty reports whether the shard can produce no pairs (one of its inputs
// holds no points).
func (sh Shard) Empty() bool { return sh.P == "" }

// Manifest is the deployment descriptor of one sharded dataset (pair):
// what was partitioned, how the grid cuts it, the serving contract
// (MaxDiameter), and where each shard's indexes live. Serialized as
// indented JSON in a `.rcjm` file with an embedded CRC-32 checksum.
type Manifest struct {
	Version int `json:"version"`
	// Name labels the deployment (datagen kind, join name, ...).
	Name string `json:"name"`
	// Self marks a single-dataset manifest served as a self-join.
	Self bool `json:"self,omitempty"`
	// Bounds is the MBR of all partitioned points; the grid tiles it.
	Bounds Rect `json:"bounds"`
	// GridNX × GridNY cells tile Bounds row-major (x fastest); shard i's
	// cell is column i%GridNX, row i/GridNX.
	GridNX int `json:"grid_nx"`
	GridNY int `json:"grid_ny"`
	// MaxDiameter is the serving contract: the largest ring diameter a
	// query against this deployment may use. Queries without a bound are
	// clamped to it; wider bounds are rejected by the router, because
	// shards only hold the witness points needed up to this diameter.
	MaxDiameter float64 `json:"max_diameter"`
	// Margin is the overlap margin each cell was expanded by when its
	// points were selected: ≥ MaxDiameter/2, so an owned pair's endpoints
	// and witnesses are always shard-local.
	Margin float64 `json:"margin"`
	// Shards has GridNX*GridNY entries in cell order.
	Shards []Shard `json:"shards"`
	// Checksum is IEEE CRC-32 over the manifest's canonical JSON encoding
	// with this field zeroed.
	Checksum uint32 `json:"checksum"`
}

// checksum computes the manifest's content checksum: CRC-32 of the compact
// JSON encoding with the Checksum field zeroed. Computed from the decoded
// structure, not file bytes, so reformatting the file is harmless while any
// semantic corruption is caught.
func (m *Manifest) checksum() (uint32, error) {
	c := *m
	c.Checksum = 0
	data, err := json.Marshal(&c)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(data), nil
}

// Validate checks structural invariants: version, grid/shard-count
// agreement, cells inside bounds, margin covering the diameter contract.
func (m *Manifest) Validate() error {
	if m.Version != Version {
		return fmt.Errorf("%w: %d (supported: %d)", ErrBadVersion, m.Version, Version)
	}
	// Each side is bounded by the shard count before the two are multiplied:
	// a hostile grid (2^32 x 2^32) must not wrap to the shard count.
	if m.GridNX <= 0 || m.GridNY <= 0 || m.GridNX > len(m.Shards) || m.GridNY > len(m.Shards) {
		return fmt.Errorf("%w: grid %dx%d for %d shards", ErrBadManifest, m.GridNX, m.GridNY, len(m.Shards))
	}
	if len(m.Shards) != m.GridNX*m.GridNY {
		return fmt.Errorf("%w: %d shards for a %dx%d grid", ErrBadManifest, len(m.Shards), m.GridNX, m.GridNY)
	}
	if m.MaxDiameter <= 0 {
		return fmt.Errorf("%w: max_diameter %g (must be > 0)", ErrBadManifest, m.MaxDiameter)
	}
	if m.Margin < m.MaxDiameter/2 {
		return fmt.Errorf("%w: margin %g below max_diameter/2 = %g", ErrBadManifest, m.Margin, m.MaxDiameter/2)
	}
	for i, sh := range m.Shards {
		if sh.ID != i {
			return fmt.Errorf("%w: shard %d has id %d", ErrBadManifest, i, sh.ID)
		}
		if sh.Cell[0] > sh.Cell[2] || sh.Cell[1] > sh.Cell[3] {
			return fmt.Errorf("%w: shard %d cell inverted", ErrBadManifest, i)
		}
		if !sh.Empty() && m.Self && sh.Q != "" {
			return fmt.Errorf("%w: self manifest shard %d has a q index", ErrBadManifest, i)
		}
		if !sh.Empty() && !m.Self && sh.Q == "" {
			return fmt.Errorf("%w: pair manifest shard %d lacks a q index", ErrBadManifest, i)
		}
	}
	return nil
}

// Encode serializes the manifest, stamping the version and checksum.
func (m *Manifest) Encode() ([]byte, error) {
	m.Version = Version
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sum, err := m.checksum()
	if err != nil {
		return nil, err
	}
	m.Checksum = sum
	return json.MarshalIndent(m, "", "  ")
}

// Decode parses and verifies a manifest: well-formed JSON, supported
// version, matching checksum, valid structure.
func Decode(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("%w: %d (supported: %d)", ErrBadVersion, m.Version, Version)
	}
	sum, err := m.checksum()
	if err != nil {
		return nil, err
	}
	if sum != m.Checksum {
		return nil, fmt.Errorf("%w: computed %08x, recorded %08x", ErrBadChecksum, sum, m.Checksum)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Load reads and verifies the manifest at path.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Save encodes the manifest to path.
func (m *Manifest) Save(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// InteriorCuts returns the interior grid lines — the x coordinates shared
// between horizontally adjacent cells and the y coordinates shared between
// vertically adjacent ones, taken bit-exactly from the stored cells. A pair
// whose center lies exactly on one of these lines is owned by every cell
// touching it; the router uses the cuts to bound its dedup set.
func (m *Manifest) InteriorCuts() (xs, ys []float64) {
	for col := 1; col < m.GridNX; col++ {
		xs = append(xs, m.Shards[col].Cell[0])
	}
	for row := 1; row < m.GridNY; row++ {
		ys = append(ys, m.Shards[row*m.GridNX].Cell[1])
	}
	return xs, ys
}
