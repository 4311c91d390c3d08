#ifndef SWIFT_FAULT_HEARTBEAT_H_
#define SWIFT_FAULT_HEARTBEAT_H_

#include <map>
#include <set>
#include <vector>

namespace swift {

/// \brief Admin-side view of per-machine heartbeat managers (Sec. IV-A).
///
/// One heartbeat manager runs per machine as a proxy for all its
/// executors, so the Admin tracks machines, not executors — the paper's
/// first burden-easing strategy. The interval follows the cluster size
/// (5 s / 10 s / 15 s for small / medium / large clusters).
class HeartbeatMonitor {
 public:
  /// \param machines cluster size (chooses the interval)
  /// \param miss_threshold consecutive missed beats declaring failure
  explicit HeartbeatMonitor(int machines, int miss_threshold = 3);

  /// \brief The paper's interval rule: <=200 machines -> 5 s, <=2,000 ->
  /// 10 s, larger -> 15 s.
  static double IntervalForClusterSize(int machines);

  double interval() const { return interval_; }

  /// \brief Heartbeat from `machine`'s manager at time `now` (seconds).
  void ReportHeartbeat(int machine, double now);

  /// \brief Machines whose last beat is older than
  /// miss_threshold * interval at time `now`.
  std::vector<int> DetectFailed(double now) const;

  /// \brief Worst-case detection delay for this cluster size.
  double DetectionDelay() const { return interval_ * miss_threshold_; }

 private:
  double interval_;
  int miss_threshold_;
  std::map<int, double> last_beat_;
};

/// \brief Machine health tracking with the read-only drain mechanism
/// (Sec. IV-A third strategy): a machine with too many task failures in
/// a sliding window stops receiving new tasks but finishes running ones.
class MachineHealthMonitor {
 public:
  /// \param failure_threshold failures within `window_seconds` that mark
  /// the machine read-only.
  /// \param probation_seconds clean time after which a failure-drained
  /// machine returns to rotation via ClearExpired (0 disables).
  MachineHealthMonitor(int failure_threshold = 5,
                       double window_seconds = 60.0,
                       double probation_seconds = 0.0);

  void RecordTaskFailure(int machine, double now);

  bool IsReadOnly(int machine) const;

  /// \brief Back in rotation after repair.
  void Clear(int machine);

  /// \brief Probation sweep: failure-drained machines whose last failure
  /// is at least `probation_seconds` old return to rotation with their
  /// failure history wiped (one fresh failure must not re-drain them).
  /// Returns the machines cleared at `now`. No-op when probation is 0.
  std::vector<int> ClearExpired(double now);

 private:
  int failure_threshold_;
  double window_;
  double probation_;
  std::map<int, std::vector<double>> failures_;
  std::set<int> read_only_;
  std::map<int, double> last_failure_;
};

}  // namespace swift

#endif  // SWIFT_FAULT_HEARTBEAT_H_
