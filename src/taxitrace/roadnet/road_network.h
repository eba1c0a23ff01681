// The prepared road-network graph G = {V, E}: vertices are road junctions
// (or terminal dead-ends), edges are maximal chains of traffic elements
// between two vertices (Section IV-A of the paper). Point features are
// attached to the edge they lie on.
//
// Storage is flat: vertices, edges and incidence lists live in vectors
// indexed by id, ids are dense insertion indices, and a CSR adjacency
// plus per-edge segment tables are built from them for the hot loops.

#ifndef TAXITRACE_ROADNET_ROAD_NETWORK_H_
#define TAXITRACE_ROADNET_ROAD_NETWORK_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "taxitrace/common/check.h"
#include "taxitrace/common/result.h"
#include "taxitrace/geo/coordinates.h"
#include "taxitrace/geo/polyline.h"
#include "taxitrace/roadnet/map_features.h"
#include "taxitrace/roadnet/traffic_element.h"

namespace taxitrace {
namespace roadnet {

/// Index of a vertex within a RoadNetwork (dense, insertion order).
using VertexId = int32_t;
/// Index of an edge within a RoadNetwork (dense, insertion order).
using EdgeId = int32_t;

inline constexpr VertexId kInvalidVertex = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// A graph vertex: a junction (>= 3 incident elements) or a terminal
/// point (1 incident element).
struct Vertex {
  VertexId id = kInvalidVertex;
  geo::EnPoint position;
  bool is_junction = false;  ///< True for degree >= 3 endpoints.
};

/// A graph edge: one or more traffic elements merged into a single chain.
struct Edge {
  EdgeId id = kInvalidEdge;
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  geo::Polyline geometry;  ///< Oriented from `from` to `to`.
  double length_m = 0.0;
  double speed_limit_kmh = 40.0;
  FunctionalClass functional_class = FunctionalClass::kLocalStreet;
  /// Travel constraint relative to the edge orientation (from -> to).
  TravelDirection direction = TravelDirection::kBoth;
  /// Ids of the contributing traffic elements, in chain order (the
  /// `elements` column of Table 1).
  std::vector<ElementId> element_ids;
  std::string road_name;
  /// Features lying on this edge.
  std::vector<FeatureId> feature_ids;
};

/// A position along an edge, measured as arc length from the edge's
/// `from` end.
struct EdgePosition {
  EdgeId edge = kInvalidEdge;
  double arc_length_m = 0.0;
};

/// One incident half-edge in the flattened (CSR) adjacency: everything
/// a graph traversal needs about leaving a base vertex through one
/// edge, precomputed so the hot loops never chase Edge pointers for
/// topology. 24 bytes, cache-line friendly: a degree-4 junction's whole
/// neighbourhood fits in two lines.
struct HalfEdge {
  EdgeId edge = kInvalidEdge;
  VertexId head = kInvalidVertex;  ///< Far endpoint seen from the base.
  double length_m = 0.0;
  /// base -> head is drivable (the router's out-arc test).
  bool traversable_out = false;
  /// head -> base is drivable (the reversed-graph arc test).
  bool traversable_in = false;
  /// Leaving the base vertex follows the edge orientation (from -> to).
  bool forward = false;
};

/// The prepared road network. Construct through `PrepareRoadNetwork()`
/// (map_preparation.h) or the builder API below.
class RoadNetwork {
 public:
  /// Creates an empty network whose local frame is anchored at `origin`.
  explicit RoadNetwork(const geo::LatLon& origin);

  /// WGS84 anchor of the local east/north frame.
  [[nodiscard]] const geo::LatLon& origin() const { return origin_; }
  /// Projection between WGS84 and the local frame.
  [[nodiscard]] const geo::LocalProjection& projection() const {
    return projection_;
  }

  // --- Sizes and id enumeration ------------------------------------------
  //
  // Ids are dense: vertex ids are [0, num_vertices()) and edge ids
  // [0, num_edges()), in insertion order, so an id indexes any
  // per-vertex or per-edge table (CSV columns, scratch arrays,
  // multiplier vectors) directly.

  [[nodiscard]] size_t num_vertices() const { return vertices_.size(); }
  [[nodiscard]] size_t num_edges() const { return edges_.size(); }

  [[nodiscard]] bool HasVertex(VertexId id) const {
    return id >= 0 && static_cast<size_t>(id) < vertices_.size();
  }
  [[nodiscard]] bool HasEdge(EdgeId id) const {
    return id >= 0 && static_cast<size_t>(id) < edges_.size();
  }

  /// Visits every vertex / edge in id order. Deterministic.
  template <typename Fn>
  void ForEachVertex(Fn&& fn) const {
    for (const Vertex& v : vertices_) fn(v);
  }
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (const Edge& e : edges_) fn(e);
  }

  [[nodiscard]] const std::vector<MapFeature>& features() const {
    return features_;
  }

  /// The vertex / edge / feature with the given id. Passing an invalid
  /// id is a programming error (TT_DCHECK'd). vertex() and edge() are
  /// defined inline below the class: the search loops call them.
  [[nodiscard]] const Vertex& vertex(VertexId id) const;
  [[nodiscard]] const Edge& edge(EdgeId id) const;
  [[nodiscard]] const MapFeature& feature(FeatureId id) const;

  /// Approximate resident bytes of the graph storage (vertices, edges
  /// incl. geometry, incidence, CSR adjacency, segment tables).
  [[nodiscard]] size_t ApproxMemoryBytes() const;

  // --- Topology ----------------------------------------------------------

  /// Edges incident to `v` (regardless of traversability).
  [[nodiscard]] const std::vector<EdgeId>& IncidentEdges(VertexId v) const;

  /// Flattened (CSR) adjacency of `v`: one HalfEdge per entry of
  /// IncidentEdges(v), in the same order, with head vertex, length and
  /// per-direction traversability precomputed. Rebuilt lazily after the
  /// last builder mutation; the rebuild mutates shared state, so the
  /// first call on a finished network must happen before the network is
  /// shared across threads (Router's constructor and WarmAdjacency()
  /// both do this). Concurrent calls are race-free once warmed.
  /// Defined inline below the class: it sits in every search's hot loop.
  [[nodiscard]] std::span<const HalfEdge> OutArcs(VertexId v) const;

  /// Per-segment tables of edge `e`, one entry per segment i (between
  /// geometry points i and i + 1), so the matcher's per-point work reads
  /// them instead of recomputing a square root or an atan2 per segment:
  /// - SegmentLengths: geo::Distance(p[i], p[i + 1]), the exact value
  ///   Polyline computes, so passing it as `segment_lengths` keeps
  ///   Project / Interpolate / SubLine bit-identical, and its in-order
  ///   sum is `length_m`;
  /// - SegmentHeadings: geo::Segment{p[i], p[i + 1]}.Heading(), i.e.
  ///   geometry.SegmentHeading(i) (0 for a zero-length segment).
  /// An edge with fewer than two geometry points has no segment, so both
  /// spans are empty. Built with the CSR adjacency and under the same
  /// threading contract as OutArcs. 16 bytes per segment.
  [[nodiscard]] std::span<const double> SegmentLengths(EdgeId e) const;
  [[nodiscard]] std::span<const double> SegmentHeadings(EdgeId e) const;

  /// Builds the CSR adjacency and the segment tables now if they are
  /// stale (idempotent). Call after the last builder mutation when the
  /// network is about to be read from multiple threads.
  void WarmAdjacency() const;

  /// True when the edge may be driven in the given orientation
  /// (forward = from -> to).
  [[nodiscard]] bool CanTraverse(EdgeId e, bool forward) const;

  /// The vertex at the far end of `e` when entering from `v`. Requires
  /// `v` to be one of the edge's endpoints.
  [[nodiscard]] VertexId Opposite(EdgeId e, VertexId v) const;

  /// Point on the edge geometry at the given arc length (clamped).
  [[nodiscard]] geo::EnPoint PointAt(const EdgePosition& pos) const;

  /// Total number of features of type `t` in the map.
  [[nodiscard]] int CountFeatures(FeatureType t) const;

  /// Bounding box of all edge geometry.
  [[nodiscard]] geo::Bbox Bounds() const;

  // --- Builder API -------------------------------------------------------

  /// Adds a vertex and returns its id, the next dense index.
  VertexId AddVertex(const geo::EnPoint& position, bool is_junction);

  /// Adds an edge; `edge.id` is ignored and assigned the next dense
  /// index. `from`/`to` must be valid. Returns the assigned id.
  EdgeId AddEdge(Edge edge);

  /// Adds a point feature, attaching it to the nearest edge within
  /// `attach_radius_m` (no attachment if none is close enough). Returns
  /// the assigned feature id.
  FeatureId AddFeature(FeatureType type, const geo::EnPoint& position,
                       double attach_radius_m = 40.0);

  /// Structural validation: ids equal their indices, endpoint/geometry
  /// agreement, positive lengths and speed limits, feature attachment
  /// consistency.
  Status Validate() const;

 private:
  void RebuildAdjacency() const;
  /// Edge `e`'s entries in one of the segment tables.
  [[nodiscard]] std::span<const double> EdgeSegments(
      EdgeId e, const std::vector<double>& table) const;
  [[nodiscard]] bool adjacency_stale() const {
    return csr_vertex_count_ != vertices_.size() ||
           csr_edge_count_ != edges_.size();
  }

  geo::LatLon origin_;
  geo::LocalProjection projection_;

  std::vector<Vertex> vertices_;
  std::vector<Edge> edges_;
  /// Incident edge ids per vertex, insertion order.
  std::vector<std::vector<EdgeId>> incident_;
  std::vector<MapFeature> features_;

  // `mutable` members are lazily rebuilt caches, semantically part of
  // the const read API (see OutArcs for the threading contract).
  //
  // CSR mirror of `incident_`: vertex v's arcs are
  // csr_arcs_[csr_offsets_[v] .. csr_offsets_[v + 1]).
  mutable std::vector<int32_t> csr_offsets_;
  mutable std::vector<HalfEdge> csr_arcs_;
  // Per-edge segment tables, rebuilt with the CSR: edge e's segments are
  // entries [segment_offsets_[e], segment_offsets_[e + 1]) of both
  // arrays (see SegmentLengths).
  mutable std::vector<int32_t> segment_offsets_;
  mutable std::vector<double> segment_lengths_;
  mutable std::vector<double> segment_headings_;
  mutable size_t csr_vertex_count_ = 0;  ///< num_vertices() at last build
  mutable size_t csr_edge_count_ = 0;    ///< num_edges() at last build
};

inline const Vertex& RoadNetwork::vertex(VertexId id) const {
  TT_DCHECK(HasVertex(id));
  return vertices_[static_cast<size_t>(id)];
}

inline const Edge& RoadNetwork::edge(EdgeId id) const {
  TT_DCHECK(HasEdge(id));
  return edges_[static_cast<size_t>(id)];
}

inline std::span<const HalfEdge> RoadNetwork::OutArcs(VertexId v) const {
  TT_DCHECK(HasVertex(v));
  if (adjacency_stale()) RebuildAdjacency();
  const auto begin = static_cast<size_t>(csr_offsets_[static_cast<size_t>(v)]);
  const auto end =
      static_cast<size_t>(csr_offsets_[static_cast<size_t>(v) + 1]);
  return {csr_arcs_.data() + begin, end - begin};
}

inline std::span<const double> RoadNetwork::EdgeSegments(
    EdgeId e, const std::vector<double>& table) const {
  TT_DCHECK(HasEdge(e));
  if (adjacency_stale()) RebuildAdjacency();
  const auto begin =
      static_cast<size_t>(segment_offsets_[static_cast<size_t>(e)]);
  const auto end =
      static_cast<size_t>(segment_offsets_[static_cast<size_t>(e) + 1]);
  return {table.data() + begin, end - begin};
}

inline std::span<const double> RoadNetwork::SegmentLengths(EdgeId e) const {
  return EdgeSegments(e, segment_lengths_);
}

inline std::span<const double> RoadNetwork::SegmentHeadings(EdgeId e) const {
  return EdgeSegments(e, segment_headings_);
}

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_ROAD_NETWORK_H_
