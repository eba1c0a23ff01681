#include "taxitrace/serve/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "taxitrace/common/check.h"
#include "taxitrace/synth/weather_model.h"
#include "taxitrace/trace/time_util.h"

namespace taxitrace {
namespace serve {
namespace {

// The format is defined little-endian; the serializer writes host
// bytes, so a big-endian port needs explicit swaps before this builds.
static_assert(std::endian::native == std::endian::little,
              "taxitrace-snapshot/1 serialization assumes a "
              "little-endian host");

// The twelve slices of a version-1 snapshot, in directory order.
constexpr int64_t kSliceAll = 0;
constexpr int64_t kSliceWeekday = 1;
constexpr int64_t kSliceWeekend = 2;
constexpr int64_t kSliceTemperatureBase = 3;  // + TemperatureClass.
constexpr int64_t kSliceCrowdBase =
    kSliceTemperatureBase + synth::kNumTemperatureClasses;  // + crowd class.
constexpr int64_t kNumSlices = kSliceCrowdBase + 3;

// Appends POD records to a string with 8-byte alignment between
// sections.
class ByteWriter {
 public:
  [[nodiscard]] uint64_t offset() const { return bytes_.size(); }

  void AlignTo8() { bytes_.append((8 - bytes_.size() % 8) % 8, '\0'); }

  template <typename T>
  void Append(const T& record) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* raw = reinterpret_cast<const char*>(&record);
    bytes_.append(raw, sizeof(T));
  }

  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

// One shard's slice accumulators. Shards cover fixed contiguous
// transition ranges, so their contents never depend on worker count.
struct ShardAccumulators {
  std::vector<analysis::CellSpeedAccumulator> slices;
};

int64_t CrowdClassOf(double intensity, const SnapshotBuildOptions& options) {
  if (intensity >= options.crowd_busy_threshold) return 2;
  if (intensity >= options.crowd_active_threshold) return 1;
  return 0;
}

void WriteSliceDirectory(ByteWriter* writer) {
  auto label = [](const char* text) {
    SliceInfo info;
    std::snprintf(info.label, sizeof info.label, "%s", text);
    return info;
  };
  SliceInfo all = label("all");
  all.kind = static_cast<uint32_t>(SliceKind::kAll);
  writer->Append(all);
  SliceInfo weekday = label("weekday");
  weekday.kind = static_cast<uint32_t>(SliceKind::kDayType);
  weekday.param = 0;
  writer->Append(weekday);
  SliceInfo weekend = label("weekend");
  weekend.kind = static_cast<uint32_t>(SliceKind::kDayType);
  weekend.param = 1;
  writer->Append(weekend);
  for (int t = 0; t < synth::kNumTemperatureClasses; ++t) {
    const std::string_view text = synth::TemperatureClassLabel(
        static_cast<synth::TemperatureClass>(t));
    SliceInfo info = label(std::string(text).c_str());
    info.kind = static_cast<uint32_t>(SliceKind::kTemperature);
    info.param = t;
    writer->Append(info);
  }
  const char* crowd_labels[3] = {"crowd-quiet", "crowd-active",
                                 "crowd-busy"};
  for (int c = 0; c < 3; ++c) {
    SliceInfo info = label(crowd_labels[c]);
    info.kind = static_cast<uint32_t>(SliceKind::kCrowd);
    info.param = c;
    writer->Append(info);
  }
}

}  // namespace

Result<std::string> SnapshotBuilder::Build(const core::StudyResults& results,
                                           const Executor* executor) const {
  if (options_.num_shards <= 0) {
    return Status::InvalidArgument("SnapshotBuilder: num_shards must be > 0");
  }
  if (!(options_.crowd_active_threshold <= options_.crowd_busy_threshold)) {
    return Status::InvalidArgument(
        "SnapshotBuilder: crowd thresholds must be ordered");
  }
  const Executor& exec = executor != nullptr ? *executor : Executor::Serial();
  const analysis::Grid grid(results.grid_cell_m);
  const geo::LocalProjection& proj = results.map.network.projection();

  // Accumulate every slice per fixed contiguous shard. The shard count
  // (not the worker count) fixes the floating-point fold tree.
  const int64_t num_transitions =
      static_cast<int64_t>(results.transitions.size());
  const int64_t num_shards =
      std::min<int64_t>(options_.num_shards,
                        std::max<int64_t>(num_transitions, 1));
  std::vector<ShardAccumulators> shards(static_cast<size_t>(num_shards));
  const Status shard_status = exec.ParallelFor(
      0, num_shards, [&](int64_t shard) -> Status {
        ShardAccumulators& out = shards[static_cast<size_t>(shard)];
        out.slices.assign(static_cast<size_t>(kNumSlices),
                          analysis::CellSpeedAccumulator(grid));
        const int64_t begin = shard * num_transitions / num_shards;
        const int64_t end = (shard + 1) * num_transitions / num_shards;
        for (int64_t i = begin; i < end; ++i) {
          const core::MatchedTransition& mt =
              results.transitions[static_cast<size_t>(i)];
          for (const trace::RoutePoint& p : mt.transition.segment.points) {
            const geo::EnPoint local = proj.Forward(p.position);
            out.slices[kSliceAll].Add(local, p.speed_kmh);
            out.slices[trace::IsWeekend(p.timestamp_s) ? kSliceWeekend
                                                       : kSliceWeekday]
                .Add(local, p.speed_kmh);
            const auto temperature =
                static_cast<int64_t>(results.weather.ClassAt(p.timestamp_s));
            out.slices[kSliceTemperatureBase + temperature].Add(local,
                                                                p.speed_kmh);
            const double crowd =
                results.pedestrians.CrowdIntensityAt(local, p.timestamp_s);
            out.slices[kSliceCrowdBase + CrowdClassOf(crowd, options_)].Add(
                local, p.speed_kmh);
          }
        }
        return Status::OK();
      });
  TAXITRACE_RETURN_IF_ERROR(shard_status);

  // Fold the shards in shard order — the canonical merge order that
  // makes the bytes worker-count invariant.
  std::vector<analysis::CellSpeedAccumulator> slices(
      static_cast<size_t>(kNumSlices), analysis::CellSpeedAccumulator(grid));
  for (ShardAccumulators& shard : shards) {
    for (int64_t s = 0; s < kNumSlices; ++s) {
      slices[static_cast<size_t>(s)].Merge(
          shard.slices[static_cast<size_t>(s)]);
    }
  }

  // The sorted cell index: every cell with at least one measured point.
  std::vector<analysis::CellId> cells;
  cells.reserve(slices[kSliceAll].cells().size());
  for (const auto& [cell, moments] : slices[kSliceAll].cells()) {
    cells.push_back(cell);
  }
  std::sort(cells.begin(), cells.end(),
            [](const analysis::CellId& a, const analysis::CellId& b) {
              return a.cx != b.cx ? a.cx < b.cx : a.cy < b.cy;
            });

  SnapshotMeta meta;
  meta.cell_size_m = results.grid_cell_m;
  meta.num_cells = static_cast<int64_t>(cells.size());
  meta.num_slices = kNumSlices;
  meta.total_points = slices[kSliceAll].total_points();
  meta.overall_mean_speed_kmh = results.overall_mean_speed_kmh;
  if (cells.empty()) {
    meta.min_cx = meta.min_cy = 0;
    meta.max_cx = meta.max_cy = -1;
  } else {
    meta.min_cx = cells.front().cx;
    meta.max_cx = cells.back().cx;
    meta.min_cy = meta.max_cy = cells.front().cy;
    for (const analysis::CellId& c : cells) {
      meta.min_cy = std::min(meta.min_cy, c.cy);
      meta.max_cy = std::max(meta.max_cy, c.cy);
    }
  }
  meta.model_mu = results.cell_model.mu;
  meta.model_sigma2_group = results.cell_model.sigma2_group;
  meta.model_sigma2_residual = results.cell_model.sigma2_residual;
  meta.model_lambda = results.cell_model.lambda;

  // Model join: group index of each cell in the Eq. (3) fit.
  std::unordered_map<analysis::CellId, size_t, analysis::CellIdHash>
      cell_group;
  cell_group.reserve(results.model_cells.size());
  for (size_t g = 0; g < results.model_cells.size(); ++g) {
    cell_group.emplace(results.model_cells[g], g);
  }

  // Serialize: header + section table (patched at the end) + payloads.
  ByteWriter writer;
  SnapshotHeader header;
  std::memcpy(header.magic, kSnapshotMagic, sizeof header.magic);
  header.version = kSnapshotVersion;
  header.section_count = 6;
  writer.Append(header);
  std::vector<SectionEntry> sections;
  const uint64_t table_offset = writer.offset();
  for (uint32_t i = 0; i < header.section_count; ++i) {
    writer.Append(SectionEntry{});
  }

  auto begin_section = [&](SectionId id) {
    writer.AlignTo8();
    sections.push_back(SectionEntry{static_cast<uint32_t>(id), 0,
                                    writer.offset(), 0});
  };
  auto end_section = [&] {
    sections.back().size = writer.offset() - sections.back().offset;
  };

  begin_section(SectionId::kMeta);
  writer.Append(meta);
  end_section();

  begin_section(SectionId::kCellIndex);
  for (const analysis::CellId& c : cells) {
    writer.Append(CellEntry{c.cx, c.cy});
  }
  end_section();

  begin_section(SectionId::kSliceDirectory);
  WriteSliceDirectory(&writer);
  end_section();

  begin_section(SectionId::kSliceMoments);
  for (int64_t s = 0; s < kNumSlices; ++s) {
    const auto& slice_cells = slices[static_cast<size_t>(s)].cells();
    for (const analysis::CellId& c : cells) {
      CellMoments row;
      if (const auto it = slice_cells.find(c); it != slice_cells.end()) {
        row.n = it->second.n;
        row.mean = it->second.mean;
        row.m2 = it->second.m2;
      }
      writer.Append(row);
    }
  }
  end_section();

  begin_section(SectionId::kCellFeatures);
  for (const analysis::CellId& c : cells) {
    CellFeatureRow row;
    if (const auto it = results.cell_features.find(c);
        it != results.cell_features.end()) {
      row.traffic_lights = it->second.traffic_lights;
      row.bus_stops = it->second.bus_stops;
      row.pedestrian_crossings = it->second.pedestrian_crossings;
      row.junctions = it->second.junctions;
    }
    writer.Append(row);
  }
  end_section();

  begin_section(SectionId::kCellModel);
  const model::OneWayRemlFit& fit = results.cell_model;
  for (const analysis::CellId& c : cells) {
    CellModelRow row;
    if (const auto it = cell_group.find(c); it != cell_group.end()) {
      const size_t g = it->second;
      if (g < fit.blup.size() && g < fit.group_n.size() &&
          fit.group_n[g] > 0) {
        row.blup = fit.blup[g];
        row.blup_se = g < fit.blup_se.size() ? fit.blup_se[g] : 0.0;
        row.shrinkage = g < fit.shrinkage.size() ? fit.shrinkage[g] : 0.0;
        row.n = fit.group_n[g];
      }
    }
    writer.Append(row);
  }
  end_section();

  std::string bytes = writer.Take();
  TT_CHECK(sections.size() == header.section_count);
  const uint64_t file_size = bytes.size();
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, file_size), &file_size,
              sizeof file_size);
  std::memcpy(bytes.data() + table_offset, sections.data(),
              sections.size() * sizeof(SectionEntry));
  return bytes;
}

Result<Snapshot> Snapshot::FromBytes(std::string bytes) {
  // Park the buffer on the heap so the view survives Snapshot moves
  // (a small std::string member would relocate its inline storage).
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  Snapshot snapshot;
  snapshot.data_ = owned->data();
  snapshot.size_ = owned->size();
  snapshot.storage_ = std::move(owned);
  return Validate(std::move(snapshot));
}

Result<Snapshot> Snapshot::FromFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("snapshot: cannot open " + path);
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("snapshot: cannot stat " + path);
  }
  const auto size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length maps; an empty file is just a truncated
    // snapshot, so report it with the same message Validate would use.
    ::close(fd);
    return Status::InvalidArgument("snapshot: truncated header");
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping holds its own reference to the file.
  if (addr == MAP_FAILED) {
    return Status::IOError("snapshot: mmap failed for " + path);
  }
  Snapshot snapshot;
  snapshot.data_ = static_cast<const char*>(addr);
  snapshot.size_ = size;
  snapshot.storage_ = std::shared_ptr<const void>(
      addr, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
  return Validate(std::move(snapshot));
}

Result<Snapshot> Snapshot::Validate(Snapshot snapshot) {
  const char* const data = snapshot.data_;
  const size_t total_size = snapshot.size_;
  if (total_size < sizeof(SnapshotHeader)) {
    return Status::InvalidArgument("snapshot: truncated header");
  }
  SnapshotHeader header;
  std::memcpy(&header, data, sizeof header);
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof header.magic) != 0) {
    return Status::InvalidArgument("snapshot: bad magic");
  }
  if (header.version != kSnapshotVersion) {
    return Status::InvalidArgument("snapshot: unsupported version " +
                                   std::to_string(header.version));
  }
  if (header.file_size != total_size) {
    return Status::InvalidArgument("snapshot: size mismatch (header says " +
                                   std::to_string(header.file_size) +
                                   ", have " + std::to_string(total_size) + ")");
  }
  const uint64_t table_end =
      sizeof(SnapshotHeader) +
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (table_end > total_size) {
    return Status::InvalidArgument("snapshot: truncated section table");
  }

  int64_t meta_offset = -1;
  int64_t cell_index_size = -1;
  int64_t slice_dir_size = -1;
  int64_t moments_size = -1;
  int64_t features_size = -1;
  int64_t model_size = -1;
  snapshot.cell_index_offset_ = snapshot.slice_dir_offset_ =
      snapshot.moments_offset_ = snapshot.features_offset_ =
          snapshot.model_offset_ = -1;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry,
                data + sizeof(SnapshotHeader) + i * sizeof(SectionEntry),
                sizeof entry);
    if (entry.offset % 8 != 0 || entry.offset > total_size ||
        entry.size > total_size - entry.offset) {
      return Status::InvalidArgument("snapshot: section " +
                                     std::to_string(entry.id) +
                                     " out of bounds");
    }
    const auto offset = static_cast<int64_t>(entry.offset);
    const auto size = static_cast<int64_t>(entry.size);
    switch (static_cast<SectionId>(entry.id)) {
      case SectionId::kMeta:
        if (entry.size != sizeof(SnapshotMeta)) {
          return Status::InvalidArgument("snapshot: bad meta size");
        }
        meta_offset = offset;
        break;
      case SectionId::kCellIndex:
        snapshot.cell_index_offset_ = offset;
        cell_index_size = size;
        break;
      case SectionId::kSliceDirectory:
        snapshot.slice_dir_offset_ = offset;
        slice_dir_size = size;
        break;
      case SectionId::kSliceMoments:
        snapshot.moments_offset_ = offset;
        moments_size = size;
        break;
      case SectionId::kCellFeatures:
        snapshot.features_offset_ = offset;
        features_size = size;
        break;
      case SectionId::kCellModel:
        snapshot.model_offset_ = offset;
        model_size = size;
        break;
      default:
        break;  // Unknown sections are skippable by design.
    }
  }
  if (meta_offset < 0 || snapshot.cell_index_offset_ < 0 ||
      snapshot.slice_dir_offset_ < 0 || snapshot.moments_offset_ < 0 ||
      snapshot.features_offset_ < 0 || snapshot.model_offset_ < 0) {
    return Status::InvalidArgument("snapshot: missing required section");
  }
  std::memcpy(&snapshot.meta_, data + meta_offset, sizeof snapshot.meta_);
  const SnapshotMeta& meta = snapshot.meta_;
  if (meta.num_cells < 0 || meta.num_slices < 0 ||
      !(meta.cell_size_m > 0.0 && std::isfinite(meta.cell_size_m))) {
    return Status::InvalidArgument("snapshot: corrupt meta");
  }
  // True when `size` is exactly `rows` rows of `row_bytes`. The meta's
  // counts come from the file, so the product must not overflow.
  const auto holds = [](int64_t size, int64_t rows, size_t row_bytes) {
    int64_t bytes = 0;
    return !__builtin_mul_overflow(rows, static_cast<int64_t>(row_bytes),
                                   &bytes) &&
           bytes == size;
  };
  int64_t moment_rows = 0;
  if (__builtin_mul_overflow(meta.num_slices, meta.num_cells, &moment_rows) ||
      !holds(cell_index_size, meta.num_cells, sizeof(CellEntry)) ||
      !holds(slice_dir_size, meta.num_slices, sizeof(SliceInfo)) ||
      !holds(moments_size, moment_rows, sizeof(CellMoments)) ||
      !holds(features_size, meta.num_cells, sizeof(CellFeatureRow)) ||
      !holds(model_size, meta.num_cells, sizeof(CellModelRow))) {
    return Status::InvalidArgument(
        "snapshot: section sizes disagree with meta counts");
  }
  // The query engine trusts the meta's cell-id bounds, so they must be
  // the index's exact extremes (0/-1 when empty), as the builder writes.
  SnapshotMeta bounds;
  for (int64_t i = 0; i < meta.num_cells; ++i) {
    const analysis::CellId cur = snapshot.cell(i);
    if (i == 0) {
      bounds.min_cx = bounds.max_cx = cur.cx;
      bounds.min_cy = bounds.max_cy = cur.cy;
      continue;
    }
    const analysis::CellId prev = snapshot.cell(i - 1);
    if (prev.cx > cur.cx || (prev.cx == cur.cx && prev.cy >= cur.cy)) {
      return Status::InvalidArgument("snapshot: cell index not sorted");
    }
    bounds.max_cx = cur.cx;
    bounds.min_cy = std::min(bounds.min_cy, cur.cy);
    bounds.max_cy = std::max(bounds.max_cy, cur.cy);
  }
  if (meta.min_cx != bounds.min_cx || meta.max_cx != bounds.max_cx ||
      meta.min_cy != bounds.min_cy || meta.max_cy != bounds.max_cy) {
    return Status::InvalidArgument(
        "snapshot: meta cell bounds disagree with the cell index");
  }
  return snapshot;
}

int64_t Snapshot::FindCell(const analysis::CellId& target) const {
  int64_t lo = 0;
  int64_t hi = meta_.num_cells;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    const analysis::CellId c = cell(mid);
    if (c.cx < target.cx || (c.cx == target.cx && c.cy < target.cy)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < meta_.num_cells && cell(lo) == target) return lo;
  return -1;
}

int64_t Snapshot::FindSlice(SliceKind kind, int32_t param) const {
  for (int64_t s = 0; s < meta_.num_slices; ++s) {
    const SliceInfo info = slice(s);
    if (info.kind == static_cast<uint32_t>(kind) && info.param == param) {
      return s;
    }
  }
  return -1;
}

}  // namespace serve
}  // namespace taxitrace
