#include "stream/supervisor.h"

#include <cstdint>
#include <optional>
#include <utility>

#include "common/string_util.h"

namespace ccs::stream {

StatusOr<FailurePolicy> FailurePolicy::Parse(const std::string& text) {
  FailurePolicy policy;
  if (text.empty() || text == "fail-fast") return policy;
  if (text == "quarantine") {
    policy.mode = FailureMode::kQuarantine;
    return policy;
  }
  if (StartsWith(text, "retry:")) {
    std::string rest = text.substr(6);
    std::string count = rest;
    const std::string suffix = "+quarantine";
    if (rest.size() > suffix.size() &&
        rest.compare(rest.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      policy.mode = FailureMode::kQuarantine;
      count = rest.substr(0, rest.size() - suffix.size());
    }
    std::optional<int64_t> n = ParseInt(count);
    if (n.has_value() && *n >= 1) {
      policy.max_retries = static_cast<size_t>(*n);
      return policy;
    }
  }
  return Status::InvalidArgument(
      "failure policy '" + text +
      "': expected fail-fast | quarantine | retry:N | retry:N+quarantine");
}

std::string FailurePolicy::ToString() const {
  if (max_retries == 0) {
    return mode == FailureMode::kQuarantine ? "quarantine" : "fail-fast";
  }
  std::string out = "retry:" + std::to_string(max_retries);
  if (mode == FailureMode::kQuarantine) out += "+quarantine";
  return out;
}

SuperviseResult Supervise(const FailurePolicy& policy,
                          const std::function<Status()>& attempt) {
  SuperviseResult result;
  Status status = attempt();
  while (!status.ok() && status.code() == StatusCode::kUnavailable &&
         result.retries < policy.max_retries) {
    ++result.retries;
    status = attempt();
  }
  if (status.ok()) {
    result.action = SuperviseAction::kProceed;
    return result;
  }
  result.status = std::move(status);
  result.action = policy.mode == FailureMode::kQuarantine
                      ? SuperviseAction::kQuarantine
                      : SuperviseAction::kFail;
  return result;
}

}  // namespace ccs::stream
