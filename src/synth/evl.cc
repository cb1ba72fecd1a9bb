#include "synth/evl.h"

#include <cmath>
#include <functional>
#include <map>

namespace ccs::synth {

namespace {

constexpr double kPi = 3.14159265358979323846;

// One Gaussian mode of a class at a point in time.
struct Mode {
  std::vector<double> mean;
  double sigma;
};

// A class: label plus its (possibly multimodal) Gaussian mixture.
struct ClassSpec {
  std::string label;
  std::vector<Mode> modes;
};

using SpecFn = std::function<std::vector<ClassSpec>(double t)>;

struct Dataset {
  size_t dims;
  SpecFn spec;
};

std::vector<double> Lerp(const std::vector<double>& a,
                         const std::vector<double>& b, double t) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + (b[i] - a[i]) * t;
  return out;
}

std::vector<double> OnCircle(double cx, double cy, double radius,
                             double angle) {
  return {cx + radius * std::cos(angle), cy + radius * std::sin(angle)};
}

// N-dimensional linear sweep from `a0` (all coords) to `a1`.
std::vector<double> UniformPoint(size_t dims, double value) {
  return std::vector<double>(dims, value);
}

const std::map<std::string, Dataset>& Registry() {
  static const std::map<std::string, Dataset>* registry = [] {
    auto* reg = new std::map<std::string, Dataset>();

    // --- Translation family -------------------------------------------
    (*reg)["1CDT"] = {2, [](double t) {
      return std::vector<ClassSpec>{
          {"c1", {{{4.0, 4.0}, 0.6}}},
          {"c2", {{Lerp({0.0, 0.0}, {6.0, 6.0}, t), 0.6}}}};
    }};
    (*reg)["2CDT"] = {2, [](double t) {
      return std::vector<ClassSpec>{
          {"c1", {{Lerp({0.0, 0.0}, {6.0, 6.0}, t), 0.6}}},
          {"c2", {{Lerp({6.0, 0.0}, {0.0, 6.0}, t), 0.6}}}};
    }};
    (*reg)["1CHT"] = {2, [](double t) {
      return std::vector<ClassSpec>{
          {"c1", {{{4.0, 4.0}, 0.6}}},
          {"c2", {{Lerp({0.0, 0.0}, {8.0, 0.0}, t), 0.6}}}};
    }};
    (*reg)["2CHT"] = {2, [](double t) {
      return std::vector<ClassSpec>{
          {"c1", {{Lerp({0.0, 0.0}, {8.0, 0.0}, t), 0.6}}},
          {"c2", {{Lerp({8.0, 4.0}, {0.0, 4.0}, t), 0.6}}}};
    }};
    (*reg)["5CVT"] = {2, [](double t) {
      std::vector<ClassSpec> classes;
      for (int c = 0; c < 5; ++c) {
        double x = 2.0 * c;
        classes.push_back({"c" + std::to_string(c + 1),
                           {{Lerp({x, 0.0}, {x, 6.0}, t), 0.5}}});
      }
      return classes;
    }};

    // --- Rotation family (cyclic drift; global shape preserved) -------
    (*reg)["4CR"] = {2, [](double t) {
      std::vector<ClassSpec> classes;
      for (int c = 0; c < 4; ++c) {
        double angle = 2.0 * kPi * (0.25 * c + t);
        classes.push_back({"c" + std::to_string(c + 1),
                           {{OnCircle(0.0, 0.0, 4.0, angle), 0.6}}});
      }
      return classes;
    }};
    (*reg)["4CRE-V1"] = {2, [](double t) {
      std::vector<ClassSpec> classes;
      double radius = 2.0 + 2.0 * t;
      for (int c = 0; c < 4; ++c) {
        double angle = 2.0 * kPi * (0.25 * c + t);
        classes.push_back({"c" + std::to_string(c + 1),
                           {{OnCircle(0.0, 0.0, radius, angle), 0.6}}});
      }
      return classes;
    }};
    (*reg)["4CRE-V2"] = {2, [](double t) {
      std::vector<ClassSpec> classes;
      double radius = 2.0 + 2.0 * t;
      for (int c = 0; c < 4; ++c) {
        double angle = 2.0 * kPi * (0.25 * c + 2.0 * t);
        classes.push_back({"c" + std::to_string(c + 1),
                           {{OnCircle(0.0, 0.0, radius, angle), 0.6}}});
      }
      return classes;
    }};
    (*reg)["GEARS-2C-2D"] = {2, [](double t) {
      // Two interleaved rotating "gear arms": each class is a pair of
      // opposing teeth, i.e. a strongly elongated bar through the origin.
      // Elongation matters: a rotationally-symmetric tooth ring has an
      // isotropic covariance, making its rotation invisible to every
      // second-moment profile (including conformance constraints). A bar
      // rotates its narrow axis, which mean +/- 4 sigma constraints catch.
      std::vector<ClassSpec> classes(2);
      for (int c = 0; c < 2; ++c) {
        classes[c].label = "c" + std::to_string(c + 1);
        for (int tooth = 0; tooth < 2; ++tooth) {
          double angle = 2.0 * kPi * (0.5 * tooth + 0.125 * c + t);
          classes[c].modes.push_back({OnCircle(0.0, 0.0, 4.0, angle), 0.45});
        }
      }
      return classes;
    }};

    // --- Surround / expansion ------------------------------------------
    (*reg)["1CSurr"] = {2, [](double t) {
      // c2 circles around the static c1.
      double angle = 2.0 * kPi * t;
      return std::vector<ClassSpec>{
          {"c1", {{{0.0, 0.0}, 0.8}}},
          {"c2", {{OnCircle(0.0, 0.0, 4.0, angle), 0.6}}}};
    }};
    (*reg)["4CE1CF"] = {2, [](double t) {
      std::vector<ClassSpec> classes;
      double radius = 2.0 + 4.0 * t;
      for (int c = 0; c < 4; ++c) {
        double angle = 2.0 * kPi * (0.25 * c) + kPi / 4.0;
        classes.push_back({"c" + std::to_string(c + 1),
                           {{OnCircle(0.0, 0.0, radius, angle), 0.6}}});
      }
      classes.push_back({"c5", {{{0.0, 0.0}, 0.6}}});
      return classes;
    }};

    // --- Gaussian families in 2/3/5 dimensions --------------------------
    auto unimodal_cross = [](size_t dims) {
      return [dims](double t) {
        return std::vector<ClassSpec>{
            {"c1",
             {{Lerp(UniformPoint(dims, 0.0), UniformPoint(dims, 4.0), t),
               0.7}}},
            {"c2",
             {{Lerp(UniformPoint(dims, 4.0), UniformPoint(dims, 0.0), t),
               0.7}}}};
      };
    };
    (*reg)["UG-2C-2D"] = {2, unimodal_cross(2)};
    (*reg)["UG-2C-3D"] = {3, unimodal_cross(3)};
    (*reg)["UG-2C-5D"] = {5, unimodal_cross(5)};

    (*reg)["MG-2C-2D"] = {2, [](double t) {
      // c1 bimodal, its modes collapsing toward the center; c2 unimodal,
      // sweeping vertically.
      return std::vector<ClassSpec>{
          {"c1",
           {{Lerp({0.0, 0.0}, {3.0, 3.0}, t), 0.6},
            {Lerp({6.0, 6.0}, {3.0, 3.0}, t), 0.6}}},
          {"c2", {{Lerp({3.0, -2.0}, {3.0, 8.0}, t), 0.6}}}};
    }};
    (*reg)["FG-2C-2D"] = {2, [](double t) {
      // Four Gaussians, two per class, drifting in opposite directions;
      // class composition changes locally while the global footprint is
      // fairly stable.
      return std::vector<ClassSpec>{
          {"c1",
           {{Lerp({0.0, 0.0}, {6.0, 0.0}, t), 0.6},
            {Lerp({6.0, 6.0}, {0.0, 6.0}, t), 0.6}}},
          {"c2",
           {{Lerp({6.0, 0.0}, {0.0, 0.0}, t), 0.6},
            {Lerp({0.0, 6.0}, {6.0, 6.0}, t), 0.6}}}};
    }};

    return reg;
  }();
  return *registry;
}

}  // namespace

const std::vector<std::string>& EvlDatasetNames() {
  static const std::vector<std::string>* names = [] {
    // Fig. 8 ordering.
    return new std::vector<std::string>{
        "1CDT",      "2CDT",      "1CHT",     "2CHT",     "4CR",
        "4CRE-V1",   "4CRE-V2",   "5CVT",     "1CSurr",   "4CE1CF",
        "UG-2C-2D",  "MG-2C-2D",  "FG-2C-2D", "UG-2C-3D", "UG-2C-5D",
        "GEARS-2C-2D"};
  }();
  return *names;
}

bool IsEvlDataset(const std::string& name) {
  return Registry().count(name) > 0;
}

StatusOr<dataframe::DataFrame> GenerateEvlWindow(const std::string& name,
                                                 double t, size_t rows,
                                                 Rng* rng) {
  auto it = Registry().find(name);
  if (it == Registry().end()) {
    return Status::NotFound("unknown EVL dataset: " + name);
  }
  if (!(t >= 0.0 && t <= 1.0)) {
    return Status::InvalidArgument("EVL: t must be in [0,1]");
  }
  const Dataset& dataset = it->second;
  std::vector<ClassSpec> classes = dataset.spec(t);

  std::vector<std::vector<double>> coords(dataset.dims);
  std::vector<std::string> labels;
  labels.reserve(rows);
  for (auto& c : coords) c.reserve(rows);

  for (size_t i = 0; i < rows; ++i) {
    const ClassSpec& cls = classes[i % classes.size()];
    const Mode& mode =
        cls.modes[rng->UniformInt(0, static_cast<int64_t>(cls.modes.size()) -
                                         1)];
    for (size_t d = 0; d < dataset.dims; ++d) {
      coords[d].push_back(mode.mean[d] + rng->Gaussian(0.0, mode.sigma));
    }
    labels.push_back(cls.label);
  }

  dataframe::DataFrame df;
  for (size_t d = 0; d < dataset.dims; ++d) {
    CCS_RETURN_IF_ERROR(
        df.AddNumericColumn("x" + std::to_string(d), std::move(coords[d])));
  }
  CCS_RETURN_IF_ERROR(df.AddCategoricalColumn("class", std::move(labels)));
  return df;
}

StatusOr<std::vector<dataframe::DataFrame>> GenerateEvlStream(
    const std::string& name, size_t num_windows, size_t rows_per_window,
    Rng* rng) {
  if (num_windows < 2) {
    return Status::InvalidArgument("EVL: need at least 2 windows");
  }
  std::vector<dataframe::DataFrame> out;
  out.reserve(num_windows);
  for (size_t w = 0; w < num_windows; ++w) {
    double t = static_cast<double>(w) / static_cast<double>(num_windows - 1);
    CCS_ASSIGN_OR_RETURN(dataframe::DataFrame window,
                         GenerateEvlWindow(name, t, rows_per_window, rng));
    out.push_back(std::move(window));
  }
  return out;
}

}  // namespace ccs::synth
