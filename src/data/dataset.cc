#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace crh {

Dataset::Dataset(Schema schema, std::vector<std::string> object_ids,
                 std::vector<std::string> source_ids)
    : schema_(std::move(schema)),
      object_ids_(std::move(object_ids)),
      source_ids_(std::move(source_ids)) {
  observations_.assign(source_ids_.size(),
                       ValueTable(object_ids_.size(), schema_.num_properties()));
  dicts_.assign(schema_.num_properties(), CategoryDict());
}

size_t Dataset::num_observations() const {
  size_t total = 0;
  for (const ValueTable& t : observations_) total += t.CountPresent();
  return total;
}

size_t Dataset::MaxTextLabelLength() const {
  size_t longest = 0;
  for (size_t m = 0; m < num_properties(); ++m) {
    if (schema_.property(m).type != PropertyType::kText) continue;
    for (size_t id = 0; id < dicts_[m].size(); ++id) {
      longest = std::max(longest, dicts_[m].label(static_cast<CategoryId>(id)).size());
    }
  }
  return longest;
}

Status Dataset::set_timestamps(std::vector<int64_t> timestamps) {
  if (timestamps.size() != num_objects()) {
    return Status::InvalidArgument("timestamps size must equal num_objects");
  }
  timestamps_ = std::move(timestamps);
  return Status::OK();
}

std::vector<int64_t> Dataset::DistinctTimestamps() const {
  std::set<int64_t> distinct(timestamps_.begin(), timestamps_.end());
  return std::vector<int64_t>(distinct.begin(), distinct.end());
}

namespace {

Status CheckTable(const Dataset& data, const ValueTable& table, const char* what) {
  const Schema& schema = data.schema();
  if (table.num_objects() != data.num_objects() ||
      table.num_properties() != data.num_properties()) {
    return Status::Internal(std::string(what) + " table shape mismatch");
  }
  for (size_t i = 0; i < table.num_objects(); ++i) {
    for (size_t m = 0; m < table.num_properties(); ++m) {
      const Value& v = table.Get(i, m);
      if (v.is_missing()) continue;
      if (schema.is_discrete(m)) {
        if (!v.is_categorical()) {
          return Status::Internal(std::string(what) + ": continuous value in categorical property '" +
                                  schema.property(m).name + "'");
        }
        if (v.category() < 0 ||
            static_cast<size_t>(v.category()) >= std::max<size_t>(data.dict(m).size(), 1)) {
          return Status::Internal(std::string(what) + ": category id out of dictionary range in '" +
                                  schema.property(m).name + "'");
        }
      } else {
        if (!v.is_continuous()) {
          return Status::Internal(std::string(what) + ": categorical value in continuous property '" +
                                  schema.property(m).name + "'");
        }
        if (!std::isfinite(v.continuous())) {
          return Status::Internal(std::string(what) + ": non-finite value in '" +
                                  schema.property(m).name + "'");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status Dataset::Validate() const {
  if (observations_.size() != num_sources()) {
    return Status::Internal("observation table count != num_sources");
  }
  if (dicts_.size() != num_properties()) {
    return Status::Internal("dictionary count != num_properties");
  }
  for (size_t k = 0; k < num_sources(); ++k) {
    CRH_RETURN_NOT_OK(CheckTable(*this, observations_[k], "observation"));
  }
  if (has_ground_truth()) {
    CRH_RETURN_NOT_OK(CheckTable(*this, *ground_truth_, "ground-truth"));
  }
  if (!timestamps_.empty() && timestamps_.size() != num_objects()) {
    return Status::Internal("timestamps size != num_objects");
  }
  return Status::OK();
}

}  // namespace crh
