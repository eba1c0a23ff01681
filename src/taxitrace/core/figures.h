// Figure emitters: CSV series and GeoJSON layers reproducing the paper's
// figures (3-10) as data any plotting/GIS tool can render.

#ifndef TAXITRACE_CORE_FIGURES_H_
#define TAXITRACE_CORE_FIGURES_H_

#include <string>

#include "taxitrace/core/pipeline.h"

namespace taxitrace {
namespace core {

/// Fig. 3/4/5 base series: one row per transition point of one car (0 =
/// all cars) with position, speed, direction and season columns.
std::string SpeedPointsCsv(const StudyResults& results, int car_id = 0);

/// Fig. 6 / Fig. 9 layer: one GeoJSON polygon per grid cell with mean
/// speed, point count, feature counts and (when the model has been
/// fitted) the BLUP intercept.
std::string CellMapGeoJson(const StudyResults& results,
                           const std::string& direction = "");

/// Fig. 7 series: theoretical vs sample quantiles of the cell
/// intercepts.
std::string QqPlotCsv(const StudyResults& results);

/// Fig. 8 series: cell intercepts with 95% confidence limits, ordered by
/// intercept.
std::string InterceptsCsv(const StudyResults& results);

/// The Fig. 10 light-count boundary of the synthetic city. The paper's
/// 9 was experimentally chosen for its light-count distribution (route
/// maxima up to 22); the synthetic light census yields route counts up
/// to ~10, so the analogous boundary sits at 6, where the low-speed
/// share jumps.
inline constexpr int kFig10LightBoundary = 6;

/// Fig. 10 series: low-speed share by temperature class, split at the
/// traffic-light count boundary (default 9, the paper's experimentally
/// chosen value).
std::string WeatherLowSpeedCsv(const StudyResults& results,
                               int light_boundary = 9);

/// Temporal series: mean point speed per hour of day over the
/// transition points (hour,n,mean_kmh rows).
std::string HourlySpeedCsv(const StudyResults& results);

/// Fig. 2 layer: the origin/destination gate roads with their thick
/// geometry polygons and the central-area boundary, as GeoJSON.
std::string GatesGeoJson(const StudyResults& results,
                         double half_width_m = 60.0);

/// Writes a string to a file.
Status WriteTextFile(const std::string& path, const std::string& text);

}  // namespace core
}  // namespace taxitrace

#endif  // TAXITRACE_CORE_FIGURES_H_
