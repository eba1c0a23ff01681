#include "taxitrace/fault/fault_injector.h"

#include <cmath>
#include <limits>
#include <unordered_set>
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
                                      int64_t shard_index,
                                      FaultReport* report) const {
  const uint64_t shard_seed =
      MixSeed(plan_.seed, static_cast<uint64_t>(shard_index), kRowSalt);
  const std::vector<std::string> lines = Split(csv, '\n');
  std::string out;
  out.reserve(csv.size() + csv.size() / 16);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    // Row 0 is the header; the final Split piece after a trailing
    // newline is empty. Neither is a corruption target.
    if (i > 0 && !line.empty()) {
      Rng rng(MixSeed(shard_seed, i, kRowSalt));
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

Status FaultInjector::CorruptShard(int64_t shard_index,
                                   std::vector<trace::Trip>* trips,
                                   FaultTally* tally) const {
  tally->trips_in += static_cast<int64_t>(trips->size());
  for (const trace::Trip& trip : *trips) {
    tally->points_in += static_cast<int64_t>(trip.points.size());
  }
  // The file round trip comes first: its lenient parse cuts trips where
  // the trip id changes, so it would rejoin a spliced half to its donor
  // and merge a duplicate with its original.
  if (plan_.AnyFileFaults()) {
    trace::TraceIoStats io_stats;
    TAXITRACE_ASSIGN_OR_RETURN(
        *trips,
        trace::TripsFromCsvLenient(
            CorruptCsv(trace::TripsToCsv(*trips), shard_index,
                       &tally->report),
            &io_stats));
    tally->csv_rows += io_stats.rows_total;
    tally->report.rows_dropped_malformed += io_stats.rows_dropped_malformed;
    tally->report.rows_dropped_non_utf8 += io_stats.rows_dropped_non_utf8;
  }
  CorruptTrips(trips, &tally->report);
  tally->trips_deduplicated += static_cast<int64_t>(trips->size());
  std::unordered_set<int64_t> seen;
  tally->report.trips_dropped_duplicate_id += static_cast<int64_t>(
      std::erase_if(*trips, [&seen](const trace::Trip& trip) {
        return !seen.insert(trip.trip_id).second;
      }));
  return Status::OK();
}

void FaultTally::Add(const FaultTally& other) {
  report.Add(other.report);
  trips_in += other.trips_in;
  points_in += other.points_in;
  csv_rows += other.csv_rows;
  trips_deduplicated += other.trips_deduplicated;
}

void FaultTally::AddFunnelRows(bool file_faults,
                               obs::FunnelLedger* funnel) const {
  if (file_faults) {
    funnel
        ->AddStage("rows.csv_lenient_parse", "rows", csv_rows,
                   csv_rows - report.rows_dropped_malformed -
                       report.rows_dropped_non_utf8)
        .Drop("malformed", report.rows_dropped_malformed)
        .Drop("non_utf8", report.rows_dropped_non_utf8);
  }
  funnel
      ->AddStage("trips.store_rebuild", "trips", trips_deduplicated,
                 trips_deduplicated - report.trips_dropped_duplicate_id)
      .Drop("duplicate_id", report.trips_dropped_duplicate_id);
}

}  // namespace fault
}  // namespace taxitrace
