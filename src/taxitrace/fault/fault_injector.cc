#include "taxitrace/fault/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "taxitrace/common/random.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/trace/trace_io.h"

namespace taxitrace {
namespace fault {
namespace {

// Salts naming the injector's RNG substreams. Distinct salts keep the
// per-trip and per-row streams independent even for equal ids.
constexpr uint64_t kTripSalt = 0x11;
constexpr uint64_t kRowSalt = 0x22;

constexpr double kClockJumpSeconds = 12.0 * 3600.0;

}  // namespace

void FaultInjector::CorruptTrips(std::vector<trace::Trip>* trips,
                                 FaultReport* report) const {
  std::vector<trace::Trip> duplicates;
  for (size_t i = 0; i < trips->size(); ++i) {
    trace::Trip& trip = (*trips)[i];
    Rng rng(MixSeed(plan_.seed, static_cast<uint64_t>(trip.trip_id),
                    kTripSalt));
    // Fixed draw order: trip-level fates first, then one block of
    // draws per point. Changing this order changes which faults fire,
    // so it is part of the determinism contract.
    const bool duplicate = rng.Bernoulli(plan_.duplicate_trip_prob);
    const bool empty = rng.Bernoulli(plan_.empty_trip_prob);
    const bool single = rng.Bernoulli(plan_.single_point_trip_prob);
    const bool interleave = rng.Bernoulli(plan_.interleave_trip_prob);

    for (trace::RoutePoint& p : trip.points) {
      if (rng.Bernoulli(plan_.nan_coord_prob)) {
        switch (rng.UniformInt(0, 2)) {
          case 0:
            p.position.lat_deg = std::numeric_limits<double>::quiet_NaN();
            break;
          case 1:
            p.position.lon_deg = std::numeric_limits<double>::quiet_NaN();
            break;
          default:
            p.position.lat_deg = std::numeric_limits<double>::infinity();
            break;
        }
        ++report->injected_nan_coords;
      }
      if (rng.Bernoulli(plan_.clock_jump_prob)) {
        p.timestamp_s +=
            rng.Bernoulli(0.5) ? kClockJumpSeconds : -kClockJumpSeconds;
        ++report->injected_clock_jumps;
      }
      if (rng.Bernoulli(plan_.negative_speed_prob)) {
        p.speed_kmh = -std::fabs(p.speed_kmh) - 1.0;
        ++report->injected_negative_speeds;
      }
      if (rng.Bernoulli(plan_.swap_coord_prob)) {
        std::swap(p.position.lat_deg, p.position.lon_deg);
        ++report->injected_swapped_coords;
      }
    }

    // Trip-level mutations. At most one structural fate per trip so
    // the classes stay distinguishable in the report.
    if (empty && !trip.points.empty()) {
      trip.points.clear();
      trip.RecomputeTotals();
      ++report->injected_emptied_trips;
    } else if (single && trip.points.size() > 1) {
      trip.points.resize(1);
      trip.RecomputeTotals();
      ++report->injected_single_point_trips;
    } else if (interleave && i > 0 && trip.points.size() >= 2) {
      // Splice the leading half of this trip into the previous trip's
      // stream. The moved points keep their original trip_id, which is
      // how real interleaved car streams look after a device mixes up
      // its upload buffers.
      trace::Trip& prev = (*trips)[i - 1];
      const auto mid =
          trip.points.begin() +
          static_cast<ptrdiff_t>(trip.points.size() / 2);
      prev.points.insert(prev.points.end(), trip.points.begin(), mid);
      trip.points.erase(trip.points.begin(), mid);
      prev.RecomputeTotals();
      trip.RecomputeTotals();
      ++report->injected_interleaved_trips;
    }

    if (duplicate) {
      duplicates.push_back(trip);
      ++report->injected_duplicated_trips;
    }
  }
  for (trace::Trip& d : duplicates) trips->push_back(std::move(d));
}

std::string FaultInjector::CorruptCsv(const std::string& csv,
                                      FaultReport* report) const {
  const std::vector<std::string> lines = Split(csv, '\n');
  std::string out;
  out.reserve(csv.size() + csv.size() / 16);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    // Row 0 is the header; the final Split piece after a trailing
    // newline is empty. Neither is a corruption target.
    if (i > 0 && !line.empty()) {
      Rng rng(MixSeed(plan_.seed, i, kRowSalt));
      if (rng.Bernoulli(plan_.truncate_row_prob)) {
        line.resize(line.size() / 2);
        ++report->injected_truncated_rows;
      } else if (rng.Bernoulli(plan_.wrong_columns_prob)) {
        if (rng.Bernoulli(0.5)) {
          line += ",999";
        } else {
          const size_t comma = line.rfind(',');
          if (comma != std::string::npos) line.resize(comma);
        }
        ++report->injected_wrong_column_rows;
      } else if (rng.Bernoulli(plan_.junk_bytes_prob)) {
        // Overwrite a few bytes with UTF-8 continuation bytes (invalid
        // on their own). Commas are left alone so the row keeps its
        // width and the fault stays distinct from wrong_columns.
        size_t replaced = 0;
        for (size_t k = line.size() / 3;
             k < line.size() && replaced < 3; ++k) {
          if (line[k] == ',') continue;
          line[k] = static_cast<char>(0x80 + (replaced * 7));
          ++replaced;
        }
        ++report->injected_junk_rows;
      }
    }
    out += line;
    if (i + 1 < lines.size()) out += '\n';
  }
  return out;
}

Result<trace::TraceStore> RebuildStoreDroppingDuplicates(
    std::vector<trace::Trip> trips, FaultReport* report) {
  trace::TraceStore store;
  for (trace::Trip& trip : trips) {
    Status status = store.AddTrip(std::move(trip));
    if (status.ok()) continue;
    if (status.code() == StatusCode::kAlreadyExists) {
      ++report->trips_dropped_duplicate_id;
      continue;
    }
    return status;
  }
  return store;
}

Result<RegionGate> ApplyFaultPlan(const FaultPlan& plan,
                                  const geo::Bbox& network_bounds,
                                  const geo::LocalProjection& projection,
                                  trace::TraceStore* store,
                                  FaultReport* report,
                                  obs::FunnelLedger* funnel) {
  const FaultInjector injector(plan);
  std::vector<trace::Trip> trips = std::move(*store).TakeTrips();
  injector.CorruptTrips(&trips, report);
  if (plan.AnyFileFaults()) {
    trace::TraceIoStats io_stats;
    const std::string csv =
        injector.CorruptCsv(trace::TripsToCsv(trips), report);
    TAXITRACE_ASSIGN_OR_RETURN(trips,
                               trace::TripsFromCsvLenient(csv, &io_stats));
    report->rows_dropped_malformed += io_stats.rows_dropped_malformed;
    report->rows_dropped_non_utf8 += io_stats.rows_dropped_non_utf8;
    if (funnel != nullptr) {
      funnel
          ->AddStage("rows.csv_lenient_parse", "rows", io_stats.rows_total,
                     io_stats.rows_total - io_stats.rows_dropped_malformed -
                         io_stats.rows_dropped_non_utf8)
          .Drop("malformed", io_stats.rows_dropped_malformed)
          .Drop("non_utf8", io_stats.rows_dropped_non_utf8);
    }
  }
  const int64_t trips_before_rebuild = static_cast<int64_t>(trips.size());
  TAXITRACE_ASSIGN_OR_RETURN(
      *store, RebuildStoreDroppingDuplicates(std::move(trips), report));
  const int64_t trips_after_rebuild = static_cast<int64_t>(store->NumTrips());
  if (funnel != nullptr) {
    funnel
        ->AddStage("trips.store_rebuild", "trips", trips_before_rebuild,
                   trips_after_rebuild)
        .Drop("duplicate_id", trips_before_rebuild - trips_after_rebuild);
  }

  const geo::Bbox box = network_bounds.Inflated(5000.0);
  const geo::LatLon lo =
      projection.Inverse(geo::EnPoint{box.min_x, box.min_y});
  const geo::LatLon hi =
      projection.Inverse(geo::EnPoint{box.max_x, box.max_y});
  RegionGate gate;
  gate.lat_min_deg = std::min(lo.lat_deg, hi.lat_deg);
  gate.lat_max_deg = std::max(lo.lat_deg, hi.lat_deg);
  gate.lon_min_deg = std::min(lo.lon_deg, hi.lon_deg);
  gate.lon_max_deg = std::max(lo.lon_deg, hi.lon_deg);
  return gate;
}

}  // namespace fault
}  // namespace taxitrace
