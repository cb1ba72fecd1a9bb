#include "dataframe/schema.h"

namespace ccs::dataframe {

const char* AttributeTypeToString(AttributeType type) {
  switch (type) {
    case AttributeType::kNumeric:
      return "numeric";
    case AttributeType::kCategorical:
      return "categorical";
  }
  return "unknown";
}

Schema::Schema(std::vector<Attribute> attributes)
    : attributes_(std::move(attributes)) {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    for (size_t j = i + 1; j < attributes_.size(); ++j) {
      CCS_CHECK(attributes_[i].name != attributes_[j].name)
          << "duplicate attribute name " << attributes_[i].name;
    }
  }
}

Status Schema::AddAttribute(std::string name, AttributeType type) {
  if (Contains(name)) {
    return Status::AlreadyExists("attribute already in schema: " + name);
  }
  attributes_.push_back(Attribute{std::move(name), type});
  return Status::OK();
}

StatusOr<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return Status::NotFound("no attribute named " + name);
}

bool Schema::Contains(const std::string& name) const {
  // Scans directly: a miss is the common case (every AddColumn asks),
  // and IndexOf's NotFound would build its message each time.
  for (const Attribute& attribute : attributes_) {
    if (attribute.name == name) return true;
  }
  return false;
}

std::vector<size_t> Schema::NumericIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].type == AttributeType::kNumeric) out.push_back(i);
  }
  return out;
}

std::vector<size_t> Schema::CategoricalIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].type == AttributeType::kCategorical) out.push_back(i);
  }
  return out;
}

}  // namespace ccs::dataframe
