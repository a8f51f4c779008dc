// The isoperimetric inequality of Claim 13.
//
// Any d-dimensional volume composed of V unit cubes has surface area at
// least 2d · V^{(d−1)/d}. The paper proves this with Shearer's entropy
// inequality and uses it (through the 2-neighbor equivalence classes) to
// lower-bound the number of surface arcs around congested regions.
//
// This module computes exact surface areas of arbitrary cell sets in Z^d
// and provides generators for the shapes the experiments sweep over.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "topology/types.hpp"
#include "util/rng.hpp"

namespace hp::core {

/// A finite set of unit cells in Z^d. Cell coordinates must lie in
/// [0, 255] on every axis (ample for the experiments), d ≤ kMaxDim.
class CellSet {
 public:
  explicit CellSet(int d);

  int dim() const { return d_; }
  std::size_t volume() const { return cells_.size(); }
  bool contains(const net::Coord& c) const;
  /// Adds a cell; duplicates are ignored. Returns true if newly added.
  bool add(const net::Coord& c);

  /// Exact surface area: the number of (cell, direction) pairs whose
  /// neighboring cell is not in the set.
  std::size_t surface_area() const;

  /// |π_I(set)| for the axis subset excluding `dropped_axis` — the size of
  /// the projection onto the remaining d−1 axes (used by equation (1) and
  /// the Shearer bound in the Claim 13 proof).
  std::size_t projection_size(int dropped_axis) const;

 private:
  std::uint64_t key(const net::Coord& c) const;
  int d_;
  std::vector<net::Coord> cells_;
  // hp-lint: allow(unordered-member) membership/dedup only, never iterated:
  // every traversal runs over cells_, which preserves insertion order.
  std::unordered_set<std::uint64_t> index_;
};

/// Claim 13's lower bound: 2d · V^{(d−1)/d}.
double claim13_bound(int d, double volume);

/// Equation (1): surface(V) ≥ 2 · Σ_{|I|=d−1} |π_I(V)|. Computes the
/// right-hand side exactly.
std::size_t projection_surface_lower_bound(const CellSet& cells);

// --- Shape generators for the Claim 13 experiments -------------------------

/// Axis-aligned box with the given side lengths (sides.size() == d).
CellSet make_box(const std::vector<int>& sides);

/// A 1×…×1×len line along `axis`.
CellSet make_line(int d, int axis, int len);

/// A "plus"/cross of arm length `arm` centered in a box (thin in all but
/// one axis per arm) — a shape with poor volume-to-surface ratio.
CellSet make_cross(int d, int arm);

/// Random connected blob grown by seeded BFS-with-random-frontier until it
/// holds `volume` cells. Stays within [0, 255]^d.
CellSet make_random_blob(int d, std::size_t volume, Rng& rng);

/// A diagonal staircase of `len` steps (worst-case-ish perimeter growth).
CellSet make_staircase(int d, int len);

}  // namespace hp::core
