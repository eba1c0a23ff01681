#include "taxitrace/mapmatch/incremental_matcher.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace taxitrace {
namespace mapmatch {
namespace {

// Movement heading at point i, derived from the surrounding fixes. A
// point is "stationary" (no usable heading) when its neighbours are
// within GPS noise.
struct PointHeading {
  double heading = 0.0;
  bool valid = false;
};

std::vector<PointHeading> ComputeHeadings(
    const std::vector<geo::EnPoint>& pts) {
  std::vector<PointHeading> headings(pts.size());
  constexpr double kMinMove = 12.0;  // metres; below this: GPS noise
  for (size_t i = 0; i < pts.size(); ++i) {
    const geo::EnPoint& prev = pts[i == 0 ? 0 : i - 1];
    const geo::EnPoint& next = pts[i + 1 < pts.size() ? i + 1 : i];
    const geo::Segment move{prev, next};
    if (move.Length() >= kMinMove) {
      headings[i] = PointHeading{move.Heading(), true};
    } else if (i > 0) {
      headings[i] = headings[i - 1];  // keep the last known heading
    }
  }
  return headings;
}

void AppendSteps(std::vector<roadnet::PathStep>* steps,
                 const std::vector<roadnet::PathStep>& extra) {
  for (const roadnet::PathStep& s : extra) {
    // Collapse repeats of the current edge regardless of direction: GPS
    // noise makes stationary vehicles "bounce" back and forth within one
    // edge, which is not progress along the route.
    if (!steps->empty() && steps->back().edge == s.edge) continue;
    steps->push_back(s);
  }
}

}  // namespace

std::vector<roadnet::EdgeId> MatchedRoute::DistinctEdges() const {
  std::set<roadnet::EdgeId> distinct;
  for (const roadnet::PathStep& s : steps) distinct.insert(s.edge);
  return std::vector<roadnet::EdgeId>(distinct.begin(), distinct.end());
}

IncrementalMatcher::IncrementalMatcher(const roadnet::RoadNetwork* network,
                                       const roadnet::SpatialIndex* index,
                                       MatcherOptions options)
    : network_(network),
      index_(index),
      gap_filler_(network, options.gap),
      options_(options) {}

Result<MatchedRoute> IncrementalMatcher::Match(const trace::Trip& trip,
                                               RouteCache* cache) const {
  if (trip.points.size() < 2) {
    return Status::InvalidArgument("trip has fewer than two points");
  }
  const geo::LocalProjection& proj = network_->projection();
  std::vector<geo::EnPoint> pts(trip.points.size());
  for (size_t i = 0; i < trip.points.size(); ++i) {
    pts[i] = proj.Forward(trip.points[i].position);
  }
  const std::vector<PointHeading> headings = ComputeHeadings(pts);

  MatchedRoute route;
  bool anchored = false;
  roadnet::EdgePosition current{};
  geo::EnPoint current_pt{};

  // Reused across the trip's points, so candidate search allocates
  // nothing once they have grown to the largest candidate set.
  std::vector<roadnet::EdgeCandidate> nearby;
  std::vector<MatchCandidate> candidates;
  // The same for connections: each candidate's is built into `trial`,
  // and the one kept swaps places with `chosen_path`.
  roadnet::Path trial;
  roadnet::Path chosen_path;
  for (size_t i = 0; i < pts.size(); ++i) {
    FindCandidates(*index_, pts[i], headings[i].heading, headings[i].valid,
                   options_.score, &nearby, &candidates);
    if (candidates.empty()) {
      ++route.points_skipped;
      continue;
    }
    if (!anchored) {
      const MatchCandidate& best = candidates.front();
      current = roadnet::EdgePosition{best.edge, best.projection.arc_length};
      current_pt = pts[i];
      route.points.push_back(
          MatchedPoint{i, current, best.projection.distance});
      route.geometry = geo::Polyline({best.projection.point});
      anchored = true;
      continue;
    }

    // Try candidates in score order; accept the first whose network
    // connection from the current position is a plausible continuation.
    // Stationary points (no movement beyond GPS noise, no usable
    // heading) stay on the current match — noise at a junction would
    // otherwise bounce the match onto cross streets.
    const double straight = geo::Distance(current_pt, pts[i]);
    if (straight < 3.0 || !headings[i].valid) {
      continue;
    }
    const MatchCandidate* chosen = nullptr;
    for (const MatchCandidate& cand : candidates) {
      const roadnet::EdgePosition cand_pos{cand.edge,
                                           cand.projection.arc_length};
      if (!gap_filler_.Connect(current, cand_pos, cache, &trial).ok()) {
        continue;
      }
      const bool plausible = gap_filler_.IsPlausible(trial.length_m, straight);
      // The first plausible candidate wins; until one turns up, keep the
      // best-scored one as the fallback.
      if (plausible || chosen == nullptr) {
        chosen = &cand;
        std::swap(trial, chosen_path);
      }
      if (plausible) break;
    }
    if (chosen == nullptr) {
      ++route.points_skipped;
      continue;
    }
    if (gap_filler_.IsGap(chosen_path.length_m)) ++route.gaps_filled;

    current = roadnet::EdgePosition{chosen->edge,
                                    chosen->projection.arc_length};
    current_pt = pts[i];
    route.points.push_back(
        MatchedPoint{i, current, chosen->projection.distance});
    AppendSteps(&route.steps, chosen_path.steps);
    route.geometry.Extend(chosen_path.geometry);
    route.length_m += chosen_path.length_m;
  }

  if (route.points.size() < 2) {
    return Status::NotFound("fewer than two points could be matched");
  }
  return route;
}

}  // namespace mapmatch
}  // namespace taxitrace
