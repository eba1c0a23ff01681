#include "taxitrace/roadnet/road_network.h"

#include <limits>
#include <utility>

#include "taxitrace/common/check.h"
#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace roadnet {
namespace {

// Ids are int32: a network holds fewer than this many vertices, and
// fewer than this many edges.
constexpr size_t kIdCapacity = std::numeric_limits<int32_t>::max();

}  // namespace

RoadNetwork::RoadNetwork(const geo::LatLon& origin)
    : origin_(origin), projection_(origin) {}

const MapFeature& RoadNetwork::feature(FeatureId id) const {
  TT_DCHECK(id >= 0 && static_cast<size_t>(id) < features_.size());
  return features_[static_cast<size_t>(id)];
}

const std::vector<EdgeId>& RoadNetwork::IncidentEdges(VertexId v) const {
  TT_DCHECK(HasVertex(v));
  return incident_[static_cast<size_t>(v)];
}

void RoadNetwork::WarmAdjacency() const {
  if (adjacency_stale()) RebuildAdjacency();
}

void RoadNetwork::RebuildAdjacency() const {
  const size_t n = vertices_.size();
  csr_offsets_.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    csr_offsets_[v + 1] =
        csr_offsets_[v] + static_cast<int32_t>(incident_[v].size());
  }
  csr_arcs_.resize(static_cast<size_t>(csr_offsets_[n]));
  size_t next = 0;
  for (size_t v = 0; v < n; ++v) {
    const VertexId base = vertices_[v].id;
    for (const EdgeId eid : incident_[v]) {
      const Edge& e = edge(eid);
      // A self-loop appears twice in the incidence list; both copies
      // leave along the edge orientation, matching Opposite()'s
      // from-first resolution.
      const bool forward = e.from == base;
      HalfEdge arc;
      arc.edge = eid;
      arc.head = forward ? e.to : e.from;
      arc.length_m = e.length_m;
      arc.traversable_out = CanTraverse(eid, forward);
      arc.traversable_in = CanTraverse(eid, !forward);
      arc.forward = forward;
      csr_arcs_[next++] = arc;
    }
  }
  // Segment tables: each entry computed exactly as Polyline computes
  // it, so readers get the same doubles without the sqrt / atan2.
  segment_offsets_.assign(edges_.size() + 1, 0);
  segment_lengths_.clear();
  segment_headings_.clear();
  for (size_t i = 0; i < edges_.size(); ++i) {
    const std::vector<geo::EnPoint>& pts = edges_[i].geometry.points();
    for (size_t k = 0; k + 1 < pts.size(); ++k) {
      segment_lengths_.push_back(geo::Distance(pts[k], pts[k + 1]));
      segment_headings_.push_back(geo::Segment{pts[k], pts[k + 1]}.Heading());
    }
    segment_offsets_[i + 1] = static_cast<int32_t>(segment_lengths_.size());
  }
  csr_vertex_count_ = vertices_.size();
  csr_edge_count_ = edges_.size();
}

bool RoadNetwork::CanTraverse(EdgeId e, bool forward) const {
  const TravelDirection d = edge(e).direction;
  if (d == TravelDirection::kBoth) return true;
  return forward ? d == TravelDirection::kForward
                 : d == TravelDirection::kBackward;
}

VertexId RoadNetwork::Opposite(EdgeId e, VertexId v) const {
  const Edge& ed = edge(e);
  TT_DCHECK(ed.from == v || ed.to == v);
  return ed.from == v ? ed.to : ed.from;
}

geo::EnPoint RoadNetwork::PointAt(const EdgePosition& pos) const {
  return edge(pos.edge).geometry.Interpolate(pos.arc_length_m);
}

int RoadNetwork::CountFeatures(FeatureType t) const {
  int n = 0;
  for (const MapFeature& f : features_) {
    if (f.type == t) ++n;
  }
  return n;
}

geo::Bbox RoadNetwork::Bounds() const {
  geo::Bbox box = geo::Bbox::Empty();
  ForEachEdge([&](const Edge& e) { box.Extend(e.geometry.Bounds()); });
  return box;
}

size_t RoadNetwork::ApproxMemoryBytes() const {
  size_t bytes = sizeof(RoadNetwork);
  bytes += features_.capacity() * sizeof(MapFeature);
  bytes += vertices_.capacity() * sizeof(Vertex);
  bytes += csr_offsets_.capacity() * sizeof(int32_t);
  bytes += csr_arcs_.capacity() * sizeof(HalfEdge);
  bytes += segment_offsets_.capacity() * sizeof(int32_t);
  bytes += segment_lengths_.capacity() * sizeof(double);
  bytes += segment_headings_.capacity() * sizeof(double);
  bytes += incident_.capacity() * sizeof(std::vector<EdgeId>);
  for (const std::vector<EdgeId>& inc : incident_) {
    bytes += inc.capacity() * sizeof(EdgeId);
  }
  bytes += edges_.capacity() * sizeof(Edge);
  for (const Edge& e : edges_) {
    bytes += e.geometry.size() * sizeof(geo::EnPoint);
    bytes += e.element_ids.capacity() * sizeof(ElementId);
    bytes += e.feature_ids.capacity() * sizeof(FeatureId);
    bytes += e.road_name.capacity();
  }
  return bytes;
}

VertexId RoadNetwork::AddVertex(const geo::EnPoint& position,
                                bool is_junction) {
  TT_CHECK(vertices_.size() < kIdCapacity);
  const auto id = static_cast<VertexId>(vertices_.size());
  vertices_.push_back(Vertex{id, position, is_junction});
  incident_.emplace_back();
  return id;
}

EdgeId RoadNetwork::AddEdge(Edge edge) {
  TT_CHECK(HasVertex(edge.from));
  TT_CHECK(HasVertex(edge.to));
  TT_CHECK(edges_.size() < kIdCapacity);
  const auto id = static_cast<EdgeId>(edges_.size());
  edge.id = id;
  edge.length_m = edge.geometry.Length();
  incident_[static_cast<size_t>(edge.from)].push_back(id);
  incident_[static_cast<size_t>(edge.to)].push_back(id);
  edges_.push_back(std::move(edge));
  return id;
}

FeatureId RoadNetwork::AddFeature(FeatureType type,
                                  const geo::EnPoint& position,
                                  double attach_radius_m) {
  const FeatureId id = static_cast<FeatureId>(features_.size());
  features_.push_back(MapFeature{id, type, position});

  EdgeId best_edge = kInvalidEdge;
  double best_dist = attach_radius_m;
  ForEachEdge([&](const Edge& e) {
    if (!e.geometry.Bounds().Inflated(attach_radius_m).Contains(position)) {
      return;
    }
    const double d = e.geometry.Project(position).distance;
    if (d <= best_dist) {
      best_dist = d;
      best_edge = e.id;
    }
  });
  if (best_edge != kInvalidEdge) {
    edges_[static_cast<size_t>(best_edge)].feature_ids.push_back(id);
  }
  return id;
}

Status RoadNetwork::Validate() const {
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (vertices_[i].id != static_cast<VertexId>(i)) {
      return Status::Corruption(
          StrFormat("vertex %zu has id %d", i, vertices_[i].id));
    }
  }
  for (size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    if (e.id != static_cast<EdgeId>(i)) {
      return Status::Corruption(StrFormat("edge %zu has id %d", i, e.id));
    }
    if (!HasVertex(e.from) || !HasVertex(e.to)) {
      return Status::Corruption(StrFormat("edge %d has bad endpoints", e.id));
    }
    if (e.geometry.size() < 2) {
      return Status::Corruption(StrFormat("edge %d has no geometry", e.id));
    }
    constexpr double kSnapTolerance = 0.5;  // metres
    if (geo::Distance(e.geometry.front(), vertex(e.from).position) >
            kSnapTolerance ||
        geo::Distance(e.geometry.back(), vertex(e.to).position) >
            kSnapTolerance) {
      return Status::Corruption(
          StrFormat("edge %d geometry does not meet its vertices", e.id));
    }
    if (!(e.length_m > 0.0)) {
      return Status::Corruption(StrFormat("edge %d has zero length", e.id));
    }
    if (!(e.speed_limit_kmh > 0.0)) {
      return Status::Corruption(
          StrFormat("edge %d has non-positive speed limit", e.id));
    }
    for (FeatureId f : e.feature_ids) {
      if (f < 0 || static_cast<size_t>(f) >= features_.size()) {
        return Status::Corruption(
            StrFormat("edge %d references missing feature %lld", e.id,
                      static_cast<long long>(f)));
      }
    }
  }
  for (size_t v = 0; v < incident_.size(); ++v) {
    const auto vid = static_cast<VertexId>(v);
    for (EdgeId e : incident_[v]) {
      if (!HasEdge(e)) {
        return Status::Corruption(StrFormat(
            "incidence list of vertex %d lists missing edge %d", vid, e));
      }
      const Edge& ed = edge(e);
      if (ed.from != vid && ed.to != vid) {
        return Status::Corruption(
            StrFormat("incidence list of vertex %d lists edge %d", vid, e));
      }
    }
  }
  return Status::OK();
}

}  // namespace roadnet
}  // namespace taxitrace
