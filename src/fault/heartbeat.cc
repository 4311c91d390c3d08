#include "fault/heartbeat.h"

#include <algorithm>

namespace swift {

HeartbeatMonitor::HeartbeatMonitor(int machines, int miss_threshold)
    : interval_(IntervalForClusterSize(machines)),
      miss_threshold_(miss_threshold) {}

double HeartbeatMonitor::IntervalForClusterSize(int machines) {
  if (machines <= 200) return 5.0;
  if (machines <= 2000) return 10.0;
  return 15.0;
}

void HeartbeatMonitor::ReportHeartbeat(int machine, double now) {
  last_beat_[machine] = now;
}

std::vector<int> HeartbeatMonitor::DetectFailed(double now) const {
  std::vector<int> failed;
  const double deadline = interval_ * static_cast<double>(miss_threshold_);
  for (const auto& [machine, last] : last_beat_) {
    if (now - last > deadline) failed.push_back(machine);
  }
  return failed;
}

MachineHealthMonitor::MachineHealthMonitor(int failure_threshold,
                                           double window_seconds,
                                           double probation_seconds)
    : failure_threshold_(failure_threshold),
      window_(window_seconds),
      probation_(probation_seconds) {}

void MachineHealthMonitor::RecordTaskFailure(int machine, double now) {
  last_failure_[machine] = now;
  auto& times = failures_[machine];
  times.push_back(now);
  // Drop entries outside the sliding window.
  times.erase(std::remove_if(times.begin(), times.end(),
                             [&](double t) { return now - t > window_; }),
              times.end());
  if (static_cast<int>(times.size()) >= failure_threshold_) {
    read_only_.insert(machine);
  }
}

bool MachineHealthMonitor::IsReadOnly(int machine) const {
  return read_only_.count(machine) > 0;
}

void MachineHealthMonitor::Clear(int machine) {
  read_only_.erase(machine);
  failures_.erase(machine);
  last_failure_.erase(machine);
}

std::vector<int> MachineHealthMonitor::ClearExpired(double now) {
  std::vector<int> cleared;
  if (probation_ <= 0.0) return cleared;
  for (int m : read_only_) {
    // Only a failure burst drains a machine, so its last failure is
    // always recorded.
    if (now - last_failure_.at(m) >= probation_) cleared.push_back(m);
  }
  for (int m : cleared) Clear(m);
  return cleared;
}

}  // namespace swift
