// sweep.hpp — parameter-grid axes and cartesian expansion.
//
// A scenario file declares sweep axes as `sweep.<config_key> = list:...`
// or `sweep.<config_key> = range:start:stop:step`; this layer parses the
// value specs and expands the cartesian product into a deterministic,
// ordered list of grid points the engine expands into one job queue.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace caem::scenario {

/// One swept parameter: a config key and its ordered candidate values
/// (kept as strings so the same machinery sweeps numeric and symbolic
/// knobs alike — values are type-checked when a grid point's
/// NetworkConfig is built).
///
/// A JOINT axis sweeps several keys in lockstep: `key` is a
/// comma-separated key list and every value carries one '/'-separated
/// component per key (`sweep.burst_min,burst_max = list:1/1,3/8`).
/// Joint axes express paired parameters — (min, max) burst policies,
/// matched power levels — that a cartesian cross product cannot (it
/// would generate the invalid combinations too).
struct Axis {
  std::string key;
  std::vector<std::string> values;
};

/// Parse an axis value spec:
///   `list:v1,v2,v3`          explicit values (trimmed, empties rejected)
///   `range:start:stop:step`  inclusive numeric range (step > 0)
/// Joint axes (comma in `key`) accept `list:` only, and every value must
/// have exactly one '/'-separated component per key.
/// Throws std::invalid_argument on anything else.
[[nodiscard]] Axis parse_axis(const std::string& key, const std::string& spec);

/// The component keys of a (possibly joint) axis key: "a,b" -> {a, b}.
[[nodiscard]] std::vector<std::string> axis_key_components(const std::string& key);

/// Append the (key, value) assignment(s) one axis value contributes to a
/// grid point, splitting joint axes.  Throws std::invalid_argument when
/// the value's component count does not match the key's.
void append_assignments(const Axis& axis, const std::string& value,
                        std::vector<std::pair<std::string, std::string>>& out);

/// One cell of the cartesian grid: `assignments` pairs each axis key
/// with the value chosen for this point, in axis order.
struct GridPoint {
  std::size_t index = 0;  ///< position in expansion order
  std::vector<std::pair<std::string, std::string>> assignments;
};

/// Number of points `expand_grid` will produce (1 for no axes).
[[nodiscard]] std::size_t grid_size(const std::vector<Axis>& axes);

/// Expand the cartesian product.  Ordering is deterministic: axes vary
/// odometer-style with the LAST axis fastest; with no axes the grid is a
/// single empty point (one unswep run).  Throws std::invalid_argument
/// on an axis with no values.
[[nodiscard]] std::vector<GridPoint> expand_grid(const std::vector<Axis>& axes);

/// "key=v1, key2=v2" label for tables and logs ("(baseline)" when empty).
[[nodiscard]] std::string describe(const GridPoint& point);

}  // namespace caem::scenario
