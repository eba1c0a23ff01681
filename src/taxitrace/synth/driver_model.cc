#include "taxitrace/synth/driver_model.h"

#include <algorithm>
#include <cmath>

#include "taxitrace/trace/time_util.h"

namespace taxitrace {
namespace synth {
namespace {

// Cursor over a polyline with prefix sums kept in a caller-owned buffer
// (so repeated drives reuse the storage). Lookups remember the last
// segment: the drive loop advances monotonically, making the common
// query O(1); any other query falls back to the O(log n) binary search
// with identical results.
class GeometryCursor {
 public:
  GeometryCursor(const geo::Polyline& line, std::vector<double>* cum)
      : line_(line), cum_(*cum) {
    const std::vector<geo::EnPoint>& pts = line.points();
    cum_.clear();
    cum_.reserve(pts.size());
    cum_.push_back(0.0);
    for (size_t i = 1; i < pts.size(); ++i) {
      cum_.push_back(cum_.back() + geo::Distance(pts[i - 1], pts[i]));
    }
  }

  double total() const { return cum_.empty() ? 0.0 : cum_.back(); }

  geo::EnPoint PositionAt(double arc) const {
    const size_t i = SegmentAt(arc);
    const std::vector<geo::EnPoint>& pts = line_.points();
    const double seg = cum_[i + 1] - cum_[i];
    const double t = seg > 0 ? (arc - cum_[i]) / seg : 0.0;
    return pts[i] + std::clamp(t, 0.0, 1.0) * (pts[i + 1] - pts[i]);
  }

  double HeadingAt(double arc) const {
    return HeadingOfSegment(SegmentAt(arc));
  }

  /// Position and heading at `arc` from a single segment lookup — the
  /// drive loop needs both for every sample.
  void SampleAt(double arc, geo::EnPoint* pos, double* heading) const {
    const size_t i = SegmentAt(arc);
    const std::vector<geo::EnPoint>& pts = line_.points();
    const double seg = cum_[i + 1] - cum_[i];
    const double t = seg > 0 ? (arc - cum_[i]) / seg : 0.0;
    *pos = pts[i] + std::clamp(t, 0.0, 1.0) * (pts[i + 1] - pts[i]);
    *heading = HeadingOfSegment(i);
  }

 private:
  /// SegmentHeading (an atan2) memoised per segment: consecutive drive
  /// samples almost always share a segment.
  double HeadingOfSegment(size_t i) const {
    if (i != heading_seg_) {
      heading_seg_ = i;
      heading_ = line_.SegmentHeading(i);
    }
    return heading_;
  }

  // The segment holding `arc`: the largest i with cum_[i] <= arc,
  // clamped into [0, size - 2] — the fast paths below reproduce the
  // binary search's answer exactly whenever they hit.
  size_t SegmentAt(double arc) const {
    arc = std::clamp(arc, 0.0, total());
    size_t i = hint_;
    if (i + 1 < cum_.size() && cum_[i] <= arc) {
      if (arc < cum_[i + 1]) return i;
      if (i + 2 < cum_.size() && cum_[i + 1] <= arc && arc < cum_[i + 2]) {
        hint_ = i + 1;
        return i + 1;
      }
    }
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), arc);
    i = it == cum_.begin()
            ? 0
            : static_cast<size_t>(it - cum_.begin()) - 1;
    if (i + 1 >= cum_.size()) i = cum_.size() - 2;
    hint_ = i;
    return i;
  }

  const geo::Polyline& line_;
  std::vector<double>& cum_;
  mutable size_t hint_ = 0;
  mutable size_t heading_seg_ = static_cast<size_t>(-1);
  mutable double heading_ = 0.0;
};

}  // namespace

DriverModel::DriverModel(const CityMap* map, const WeatherModel* weather,
                         DriverOptions options,
                         const PedestrianModel* pedestrians)
    : map_(map),
      weather_(weather),
      pedestrians_(pedestrians),
      options_(options) {
  // Precompute, for every edge (indexed by id), the features whose
  // influence circle the edge passes through and where along the edge
  // they act.
  edge_events_.resize(map_->network.num_edges());
  for (const roadnet::MapFeature& f : map_->network.features()) {
    map_->network.ForEachEdgeWithin(
        f.position, options_.feature_influence_radius_m,
        [&](const roadnet::Edge& e, const geo::PolylineProjection& proj) {
          edge_events_[static_cast<size_t>(e.id)].push_back(
              EdgeEvent{f.type, proj.arc_length});
        });
  }
}

double DriverModel::HotspotFactor(const geo::EnPoint& p) const {
  return 1.0 - 0.55 * HotspotIntensity(p);
}

double DriverModel::HotspotIntensity(const geo::EnPoint& p) const {
  double intensity = 0.0;
  for (const Hotspot& h : map_->hotspots) {
    const double d = geo::Distance(p, h.center);
    if (d < h.radius_m) {
      const double depth = 1.0 - d / h.radius_m;  // 0 at rim, 1 at centre
      intensity = std::max(intensity, h.intensity * depth);
    }
  }
  return intensity;
}

double DriverModel::CrowdIntensity(const geo::EnPoint& p,
                                   double timestamp_s) const {
  return pedestrians_ != nullptr
             ? pedestrians_->CrowdIntensityAt(p, timestamp_s)
             : HotspotIntensity(p);
}

double DriverModel::CrowdIntensity(
    const geo::EnPoint& p, double timestamp_s,
    const std::vector<size_t>& candidates) const {
  if (pedestrians_ != nullptr) {
    return pedestrians_->CrowdIntensityAt(p, timestamp_s, candidates);
  }
  // Static profile, restricted to the candidates; skipped hotspots are
  // out of range and contribute nothing, so this equals
  // HotspotIntensity(p) for any p the candidates were built for.
  double intensity = 0.0;
  for (const size_t i : candidates) {
    const Hotspot& h = map_->hotspots[i];
    const double d = geo::Distance(p, h.center);
    if (d < h.radius_m) {
      const double depth = 1.0 - d / h.radius_m;
      intensity = std::max(intensity, h.intensity * depth);
    }
  }
  return intensity;
}

double DriverModel::CrowdIntensity(
    const geo::EnPoint& p, const CrowdWindow& window,
    const std::vector<size_t>& candidates) const {
  if (pedestrians_ != nullptr) {
    return pedestrians_->CrowdIntensityAt(p, window, candidates);
  }
  // The static profile is time-independent; the window carries nothing.
  double intensity = 0.0;
  for (const size_t i : candidates) {
    const Hotspot& h = map_->hotspots[i];
    const double d = geo::Distance(p, h.center);
    if (d < h.radius_m) {
      const double depth = 1.0 - d / h.radius_m;
      intensity = std::max(intensity, h.intensity * depth);
    }
  }
  return intensity;
}

void DriverModel::FillHotspotCandidates(
    const geo::EnPoint& lo, const geo::EnPoint& hi,
    std::vector<size_t>* candidates) const {
  candidates->clear();
  const std::vector<Hotspot>& hotspots =
      pedestrians_ != nullptr ? pedestrians_->hotspots() : map_->hotspots;
  for (size_t i = 0; i < hotspots.size(); ++i) {
    const Hotspot& h = hotspots[i];
    // Keep h when its centre is within radius of the box on both axes:
    // necessary for any point p in the box to satisfy
    // Distance(p, centre) < radius, since that distance dominates each
    // axis gap. Conservative, hence exactness-preserving.
    if (h.center.x >= lo.x - h.radius_m && h.center.x <= hi.x + h.radius_m &&
        h.center.y >= lo.y - h.radius_m && h.center.y <= hi.y + h.radius_m) {
      candidates->push_back(i);
    }
  }
}

double DriverModel::SeasonFactor(double timestamp_s) {
  switch (trace::MonthOfTimestamp(timestamp_s)) {
    case 12:
    case 1:
    case 2:
      return 0.97;  // winter: slowest
    case 3:
    case 4:
    case 5:
      return 1.0;  // spring
    case 6:
    case 7:
    case 8:
      return 1.03;  // summer
    default:
      return 1.065;  // autumn: fastest (the ordering of the paper)
  }
}

std::vector<DriveSample> DriverModel::Drive(const roadnet::Path& path,
                                            double start_time_s,
                                            double driver_factor,
                                            Rng* rng) const {
  DriveScratch scratch;
  Drive(path, start_time_s, driver_factor, rng, &scratch);
  return std::move(scratch.samples);
}

const std::vector<DriveSample>& DriverModel::Drive(
    const roadnet::Path& path, double start_time_s, double driver_factor,
    Rng* rng, DriveScratch* scratch) const {
  std::vector<DriveSample>& samples = scratch->samples;
  samples.clear();
  if (path.geometry.size() < 2) return samples;
  const GeometryCursor cursor(path.geometry, &scratch->cursor_cum);
  const double total = cursor.total();
  if (total < 1.0) return samples;

  // Hotspot prefilter: every crowd query below is at a point of the
  // path geometry, so only hotspots whose influence circle meets the
  // geometry's bounding box can ever contribute. Most drives pass no
  // hotspot at all and skip the per-step crowd scans entirely.
  {
    const std::vector<geo::EnPoint>& pts = path.geometry.points();
    geo::EnPoint lo = pts.front();
    geo::EnPoint hi = pts.front();
    for (const geo::EnPoint& p : pts) {
      lo.x = std::min(lo.x, p.x);
      lo.y = std::min(lo.y, p.y);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
    }
    FillHotspotCandidates(lo, hi, &scratch->hotspot_candidates);
  }
  const std::vector<size_t>& hotspot_candidates =
      scratch->hotspot_candidates;

  // Speed-limit zones along the path, one per step. When the path
  // contains partial edges the step lengths are scaled onto the actual
  // geometry length.
  using Zone = DriveScratch::Zone;
  using DriveEvent = DriveScratch::Event;
  std::vector<Zone>& zones = scratch->zones;
  zones.clear();
  double steps_total = 0.0;
  for (const roadnet::PathStep& s : path.steps) {
    steps_total += map_->network.edge(s.edge).length_m;
  }
  const double scale = steps_total > 0 ? total / steps_total : 1.0;
  {
    double arc = 0.0;
    for (const roadnet::PathStep& s : path.steps) {
      const roadnet::Edge& e = map_->network.edge(s.edge);
      arc += e.length_m * scale;
      zones.push_back(Zone{arc, e.speed_limit_kmh / 3.6});
    }
    if (zones.empty()) zones.push_back(Zone{total, 40.0 / 3.6});
    zones.back().end_arc = total;
  }

  // Instantiate stochastic events along the path.
  std::vector<DriveEvent>& events = scratch->events;
  events.clear();
  {
    double base_arc = 0.0;
    for (const roadnet::PathStep& s : path.steps) {
      const roadnet::Edge& e = map_->network.edge(s.edge);
      for (const EdgeEvent& ev : edge_events_[static_cast<size_t>(s.edge)]) {
        const double on_edge =
            s.forward ? ev.arc_on_edge_m : e.length_m - ev.arc_on_edge_m;
        const double arc = base_arc + on_edge * scale;
        if (arc < 5.0 || arc > total - 5.0) continue;
        DriveEvent out;
        out.arc_m = arc;
        switch (ev.type) {
          case roadnet::FeatureType::kTrafficLight:
            if (rng->Bernoulli(options_.light_stop_prob)) {
              out.is_stop = true;
              out.wait_s = rng->Bernoulli(options_.light_error_prob)
                               ? options_.light_error_wait_s
                               : rng->Uniform(options_.light_wait_min_s,
                                              options_.light_wait_max_s);
              events.push_back(out);
            }
            break;
          case roadnet::FeatureType::kPedestrianCrossing: {
            const geo::EnPoint pos = cursor.PositionAt(arc);
            const double crowd = 0.55 * CrowdIntensity(
                pos, start_time_s, hotspot_candidates);  // 0..0.55
            const double p_slow = std::min(
                0.9, options_.crossing_slow_prob * (1.0 + 3.0 * crowd));
            if (rng->Bernoulli(p_slow)) {
              out.slow_to_ms = options_.crossing_slow_kmh / 3.6;
              if (crowd > 0.0 &&
                  rng->Bernoulli(options_.crossing_stop_prob_in_hotspot *
                                 crowd * 3.0)) {
                out.is_stop = true;
                out.wait_s = rng->Uniform(2.0, 10.0);
              }
              events.push_back(out);
            }
            break;
          }
          case roadnet::FeatureType::kBusStop:
            if (rng->Bernoulli(options_.bus_slow_prob)) {
              out.is_stop = true;
              out.wait_s = rng->Uniform(4.0, 18.0);
              events.push_back(out);
            }
            break;
        }
      }
      base_arc += e.length_m * scale;
    }
    std::sort(events.begin(), events.end(),
              [](const DriveEvent& a, const DriveEvent& b) {
                return a.arc_m < b.arc_m;
              });
    // Merge events closer than 12 m (a junction's lights seen from two
    // incident edges should act once).
    std::vector<DriveEvent>& merged = scratch->merged_events;
    merged.clear();
    for (const DriveEvent& ev : events) {
      if (!merged.empty() && ev.arc_m - merged.back().arc_m < 12.0) {
        merged.back().is_stop = merged.back().is_stop || ev.is_stop;
        merged.back().wait_s = std::max(merged.back().wait_s, ev.wait_s);
        merged.back().slow_to_ms =
            std::min(merged.back().slow_to_ms, ev.slow_to_ms);
        continue;
      }
      merged.push_back(ev);
    }
    events.swap(merged);
  }

  const bool slippery = weather_->SlipperyAt(start_time_s);
  const double temperature = weather_->TemperatureAt(start_time_s);
  double weather_factor = 1.0;
  if (slippery) weather_factor *= 0.96;
  if (temperature < -12.0) weather_factor *= 0.95;
  const double season_factor = SeasonFactor(start_time_s);

  const double dt = options_.step_s;
  double t = start_time_s;
  double arc = 0.0;
  double v = 0.0;
  size_t zone_idx = 0;
  size_t next_stop = 0;
  // Queue discharge after a stop: crawl slowly for a stretch.
  double crawl_until_arc = -1.0;
  double crawl_speed_ms = 99.0;
  const int max_iterations = static_cast<int>(3 * 3600 / dt);
  samples.reserve(static_cast<size_t>(total / 8.0) + 16);

  // Timestamp decomposition hoisted out of the loop: day index, weekend
  // flag and diurnal crowd level are constant between CrowdWindow
  // boundaries, so one window refresh replaces a HourOfDay + IsWeekend
  // + DayOfStudy round per simulated second.
  CrowdWindow window = MakeCrowdWindow(t);

  // One PositionAt per step: the sample position computed at the bottom
  // of the loop is exactly the next iteration's current position.
  geo::EnPoint pos = cursor.PositionAt(arc);
  for (int iter = 0; iter < max_iterations && arc < total - 0.5; ++iter) {
    while (zone_idx + 1 < zones.size() && arc > zones[zone_idx].end_arc) {
      ++zone_idx;
    }
    if (t >= window.valid_until_s) window = MakeCrowdWindow(t);
    // Seconds into the study day; `hour >= 7.0` on the historical
    // HourOfDay value is `tod >= 7 * 3600` here (the breakpoint
    // products are exact, so the division by 3600 preserves order).
    const double tod = t - window.day_start_s;
    const bool rush = !window.weekend &&
                      ((tod >= 7.0 * 3600.0 && tod < 9.0 * 3600.0) ||
                       (tod >= 15.0 * 3600.0 && tod < 17.0 * 3600.0));
    const double crowd_now = CrowdIntensity(pos, window, hotspot_candidates);
    double target = zones[zone_idx].limit_ms * driver_factor *
                    season_factor * weather_factor *
                    (1.0 - 0.55 * crowd_now);
    if (rush && map_->central_area.Contains(pos)) target *= 0.86;
    // Pedestrian traffic inside crowded areas forces ad-hoc crawls.
    if (arc >= crawl_until_arc && v > 1.0) {
      const double crowd = crowd_now;
      if (crowd > 0.0 &&
          rng->Bernoulli(crowd * options_.hotspot_crawl_rate_per_s * dt)) {
        crawl_until_arc = arc + rng->Uniform(8.0, 30.0);
        crawl_speed_ms = rng->Uniform(0.4, 2.0);
      }
    }
    if (arc < crawl_until_arc) target = std::min(target, crawl_speed_ms);

    // Slow-down events act in a window around their position.
    for (size_t i = next_stop; i < events.size(); ++i) {
      if (events[i].arc_m > arc + 30.0) break;
      if (!events[i].done && std::abs(events[i].arc_m - arc) < 22.0) {
        target = std::min(target, events[i].slow_to_ms);
      }
    }
    // Brake for the next pending stop; execute the wait on arrival.
    while (next_stop < events.size() &&
           (events[next_stop].done ||
            (!events[next_stop].is_stop &&
             events[next_stop].arc_m < arc - 25.0))) {
      ++next_stop;
    }
    if (next_stop < events.size() && events[next_stop].is_stop) {
      DriveEvent& ev = events[next_stop];
      const double gap = ev.arc_m - arc;
      // Arrived at the stop line (the braking profile brings v down on
      // approach; any residual speed is absorbed by the stop).
      if (gap <= 3.0) {
        // Arrived: wait out the red light / crossing / bus. Position
        // and arc are frozen for the whole wait, so one heading lookup
        // serves every wait sample.
        const double stop_heading = cursor.HeadingAt(arc);
        const int wait_samples =
            std::max(1, static_cast<int>(ev.wait_s / dt));
        for (int w = 0; w < wait_samples; ++w) {
          t += dt;
          samples.push_back(DriveSample{t, pos, 0.0, stop_heading,
                                        options_.fuel_idle_ml_s * dt});
        }
        ev.done = true;
        ++next_stop;
        v = 0.0;
        // A queue often discharges slowly past the stop line.
        if (rng->Bernoulli(options_.queue_crawl_prob)) {
          crawl_until_arc = arc + rng->Uniform(15.0, 60.0);
          crawl_speed_ms = rng->Uniform(1.0, 2.4);  // ~4-9 km/h
        }
        continue;
      }
      if (gap > 0.0) {
        const double v_brake =
            std::sqrt(2.0 * options_.decel_ms2 * std::max(0.0, gap - 1.5));
        target = std::min(target, v_brake);
      }
    }
    // Keep crawling forward when no stop is pending.
    if (target < 1.0 &&
        (next_stop >= events.size() || !events[next_stop].is_stop ||
         events[next_stop].arc_m > arc + 3.0)) {
      target = 1.0;
    }

    const double dv = std::clamp(target - v, -options_.decel_ms2 * dt,
                                 options_.accel_ms2 * dt);
    v = std::max(0.0, v + dv);
    arc = std::min(total, arc + v * dt);
    t += dt;
    const double fuel =
        options_.fuel_idle_ml_s * dt + options_.fuel_speed_ml_per_m * v * dt +
        options_.fuel_speed2_ml_s_per_ms2 * v * v * dt +
        options_.fuel_accel_ml_per_ms * std::max(0.0, dv);
    double heading;
    cursor.SampleAt(arc, &pos, &heading);
    samples.push_back(DriveSample{t, pos, v * 3.6, heading, fuel});
  }
  return samples;
}

std::vector<DriveSample> DriverModel::Idle(const geo::EnPoint& position,
                                           double start_time_s,
                                           double duration_s) const {
  std::vector<DriveSample> samples;
  Idle(position, start_time_s, duration_s, &samples);
  return samples;
}

void DriverModel::Idle(const geo::EnPoint& position, double start_time_s,
                       double duration_s,
                       std::vector<DriveSample>* out) const {
  out->clear();
  constexpr double kIdleStep = 10.0;
  for (double t = kIdleStep; t <= duration_s; t += kIdleStep) {
    out->push_back(DriveSample{start_time_s + t, position, 0.0, 0.0,
                               options_.fuel_idle_ml_s * kIdleStep});
  }
}

}  // namespace synth
}  // namespace taxitrace
